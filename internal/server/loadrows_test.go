package server_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// LoadRows is how a coordinator writes rows to a worker. A load must be
// indistinguishable from the SQL INSERT it stands for, down to the WAL
// bytes, and every misuse must fail typed.

const loadSchema = "CREATE TABLE T (K INTEGER, F FLOAT, D DATE, S TEXT)"

// loadDB is a non-durable worker engine holding T with one row.
func loadDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(8)
	if _, err := db.Exec(loadSchema+"; INSERT INTO T VALUES (7, 1.5, '2-2-82', 'seed')", engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return db
}

func loadPayload(table string, rows ...storage.Tuple) []byte {
	return wal.AppendPayload(nil, wal.Record{Type: wal.RecInsert, Table: table, Rows: rows})
}

func engineRows(t *testing.T, db *engine.DB) int {
	t.Helper()
	res, err := db.Query("SELECT K FROM T", engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

func countRows(t *testing.T, c *client.Conn) int {
	t.Helper()
	res, err := c.Collect("SELECT K FROM T", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestLoadRowsLogsLikeInsert: the same rows loaded by SQL INSERT into
// one fresh durable engine and by a LoadRows frame into another leave
// byte-identical logs. The frame carries the raw values (an INTEGER for
// the FLOAT column, a string for the DATE), so equality also proves the
// load went through the INSERT coercion.
func TestLoadRowsLogsLikeInsert(t *testing.T) {
	open := func(dir string) *engine.DB {
		db := engine.New(8)
		if _, err := db.EnableDurability(dir, wal.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(loadSchema, engine.Options{}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	sqlDir, loadDir := t.TempDir(), t.TempDir()

	sqlDB := open(sqlDir)
	if _, err := sqlDB.Exec(`INSERT INTO T VALUES (1, 2, '1-1-80', 'it''s'), (-3, 0.25, NULL, NULL)`, engine.Options{}); err != nil {
		t.Fatal(err)
	}

	loadDB := open(loadDir)
	_, addr := startServer(t, loadDB, server.Config{})
	done, err := dial(t, addr).Load(loadPayload("T",
		storage.Tuple{value.NewInt(1), value.NewInt(2), value.NewString("1-1-80"), value.NewString("it's")},
		storage.Tuple{value.NewInt(-3), value.NewFloat(0.25), value.Null, value.Null},
	))
	if err != nil || done.Rows != 2 {
		t.Fatalf("Load = %+v, %v; want 2 rows", done, err)
	}

	for _, db := range []*engine.DB{sqlDB, loadDB} {
		if err := db.WAL().Close(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(sqlDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no WAL files written")
	}
	for _, e := range names {
		want, err := os.ReadFile(filepath.Join(sqlDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(loadDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: LoadRows log differs from SQL INSERT log:\n% x\n% x", e.Name(), got, want)
		}
	}
}

// TestLoadRowsNeedsClusterFeature: like ShardQuery, a LoadRows frame on
// a session that did not negotiate the cluster feature is a protocol
// error, and the session ends.
func TestLoadRowsNeedsClusterFeature(t *testing.T) {
	db := loadDB(t)
	_, addr := startServer(t, db, server.Config{})
	nc, br, codec := rawHandshake(t, addr, wire.Hello{Version: wire.Version, Flags: wire.FeatureChecksum})
	row := storage.Tuple{value.NewInt(1), value.NewFloat(1), value.Null, value.Null}
	if err := codec.WriteFrame(nc, wire.FrameLoadRows, loadPayload("T", row)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := codec.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := wire.DecodeError(payload)
	if typ != wire.FrameError || f.Code != wire.CodeProtocol {
		t.Fatalf("got frame 0x%02x %+v, want protocol Error", typ, f)
	}
	if _, _, err := codec.ReadFrame(br); !errors.Is(err, io.EOF) {
		t.Errorf("session kept serving after the refusal: %v", err)
	}
	if n := engineRows(t, db); n != 1 {
		t.Errorf("T has %d rows, want the 1 seeded row", n)
	}
}

// TestLoadRowsRejectsOtherRecords: a payload that is not a RecInsert
// record — another record type, or bytes that decode to no record — is
// a protocol error that ends the session and touches nothing.
func TestLoadRowsRejectsOtherRecords(t *testing.T) {
	db := loadDB(t)
	_, addr := startServer(t, db, server.Config{})
	for _, payload := range [][]byte{
		wal.AppendPayload(nil, wal.Record{Type: wal.RecDrop, Table: "T"}),
		wal.AppendPayload(nil, wal.Record{Type: wal.RecDelete, SQL: "DELETE FROM T"}),
		{0x00},
		append(loadPayload("T", storage.Tuple{value.NewInt(1), value.NewFloat(1), value.Null, value.Null}), 0xFF),
	} {
		c := dial(t, addr)
		_, err := c.Load(payload)
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Frame.Code != wire.CodeProtocol {
			t.Errorf("Load(% x) = %v, want a protocol error", payload, err)
		}
		if _, err := c.Collect("SELECT K FROM T", client.Options{}); err == nil {
			t.Errorf("session kept serving after refusing % x", payload)
		}
	}
	if n := engineRows(t, db); n != 1 {
		t.Errorf("T has %d rows, want the 1 seeded row", n)
	}
}

// TestLoadRowsTypeMismatchIsTyped: a TEXT value for an INTEGER column
// fails the load with the engine's typed answer, leaves the table as it
// was, and keeps the connection serving. An unknown table answers with
// "unknown relation" — the coordinator's restarted-empty signal.
func TestLoadRowsTypeMismatchIsTyped(t *testing.T) {
	_, addr := startServer(t, loadDB(t), server.Config{})
	c := dial(t, addr)
	good := storage.Tuple{value.NewInt(1), value.NewFloat(1), value.Null, value.Null}
	bad := storage.Tuple{value.NewString("one"), value.NewFloat(1), value.Null, value.Null}

	_, err := c.Load(loadPayload("T", good, bad))
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Frame.Code != wire.CodeInternal || !strings.Contains(re.Frame.Message, "cannot store") {
		t.Fatalf("Load with a TEXT key = %v, want the typed coercion error", err)
	}
	if n := countRows(t, c); n != 1 {
		t.Errorf("T has %d rows after the refused load, want 1", n)
	}

	_, err = c.Load(loadPayload("NOPE", good))
	if !errors.As(err, &re) || !strings.Contains(re.Frame.Message, "unknown relation") {
		t.Errorf("Load into a missing table = %v, want unknown relation", err)
	}

	if done, err := c.Load(loadPayload("T", good)); err != nil || done.Rows != 1 {
		t.Fatalf("Load after refusals = %+v, %v", done, err)
	}
	if n := countRows(t, c); n != 2 {
		t.Errorf("T has %d rows, want 2", n)
	}
}
