package engine_test

import (
	"bytes"
	"encoding/gob"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rowcodec"
	"repro/internal/wal"
	"repro/internal/workload"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := engine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same buffer pool size.
	if restored.Store().BufferPages() != 8 {
		t.Errorf("buffer pages = %d", restored.Store().BufferPages())
	}
	// Same query results, including NULL/date round-trips.
	for _, sql := range []string{
		workload.KiesslingQ2,
		"SELECT PNUM, QUAN, SHIPDATE FROM SUPPLY ORDER BY PNUM, QUAN",
	} {
		a := query(t, db, sql, engine.Options{Strategy: engine.TransformJA2})
		b := query(t, restored, sql, engine.Options{Strategy: engine.TransformJA2})
		if sortedRows(a) != sortedRows(b) {
			t.Errorf("%q: restored results differ:\n  %v\n  %v", sql, sortedRows(a), sortedRows(b))
		}
	}
	// Same page shapes (cost measurements reproduce).
	orig, _ := db.Store().Lookup("SUPPLY")
	rest, _ := restored.Store().Lookup("SUPPLY")
	if orig.NumPages() != rest.NumPages() || orig.NumTuples() != rest.NumTuples() {
		t.Errorf("SUPPLY shape: %d/%d pages, %d/%d tuples",
			orig.NumPages(), rest.NumPages(), orig.NumTuples(), rest.NumTuples())
	}
	// Keys survive.
	db2 := newDB(t, 8, workload.LoadSuppliers)
	buf.Reset()
	if err := db2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored2, err := engine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := restored2.Catalog().Lookup("S")
	if !s.IsKey("SNO") {
		t.Error("key lost in round trip")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := engine.Restore(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	buf.WriteString("\x00\x01\x02")
	if _, err := engine.Restore(&buf); err == nil {
		t.Error("binary garbage accepted")
	}
}

func TestSaveRestoreWithNullsAndFloats(t *testing.T) {
	db := engine.New(4)
	if _, err := db.Exec(`
		CREATE TABLE T (A INT, B FLOAT, C VARCHAR(10), D DATE);
		INSERT INTO T VALUES (1, 2.5, 'x', 7-3-79), (NULL, NULL, NULL, NULL);
	`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := engine.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := query(t, db, "SELECT A, B, C, D FROM T", engine.Options{})
	b := query(t, restored, "SELECT A, B, C, D FROM T", engine.Options{})
	if sortedRows(a) != sortedRows(b) {
		t.Errorf("round trip:\n  %v\n  %v", sortedRows(a), sortedRows(b))
	}
}

// Snapshots written before the framed image format (gob streams) are
// refused with a clear error, not misread.
func TestRestoreRejectsGobImage(t *testing.T) {
	var buf bytes.Buffer
	old := struct {
		Magic       string
		BufferPages int
	}{"nestedsql-snapshot-v1", 8}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	_, err := engine.Restore(&buf)
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot format") {
		t.Fatalf("gob image: err = %v, want unsupported snapshot format", err)
	}
}

// Every damaged image fails whole: truncated anywhere (at a record
// boundary or inside one) or with any single byte flipped, Restore
// returns an error and no database, and recovery from a data directory
// holding that image as its snapshot refuses to boot.
func TestRestoreRejectsDamagedImage(t *testing.T) {
	db := newDB(t, 8, workload.LoadKiessling)
	if _, err := db.Exec(`
		CREATE TABLE T (A INT, B FLOAT, C VARCHAR(10), D DATE);
		INSERT INTO T VALUES (1, 2.5, 'x', 7-3-79), (NULL, NULL, NULL, NULL);
	`, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()

	// Record start offsets, after the 8-byte magic.
	var starts []int
	for off := 8; off < len(image); {
		starts = append(starts, off)
		_, rest, err := rowcodec.CutRecord(image[off:])
		if err != nil {
			t.Fatalf("image record at %d: %v", off, err)
		}
		off = len(image) - len(rest)
	}
	if len(starts) < 4 {
		t.Fatalf("image has only %d records", len(starts))
	}

	restoreFails := func(what string, img []byte) {
		t.Helper()
		if got, err := engine.Restore(bytes.NewReader(img)); err == nil || got != nil {
			t.Fatalf("%s: Restore = %v, %v; want an error and no database", what, got, err)
		}
	}
	for cut := 0; cut < len(image); cut++ {
		restoreFails("truncated", image[:cut])
	}
	for pos := range image {
		img := append([]byte(nil), image...)
		img[pos] ^= 0x10
		restoreFails("flipped", img)
	}
	restoreFails("trailing byte", append(append([]byte(nil), image...), 0))

	// The same damage inside a checkpoint whose own checksum is intact:
	// one boundary cut, one mid-record cut and one flip per record.
	bootFails := func(what string, img []byte) {
		t.Helper()
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = l.Checkpoint(func(w io.Writer) error {
			_, err := w.Write(img)
			return err
		})
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.New(8).EnableDurability(dir, wal.Options{}); err == nil {
			t.Fatalf("%s: recovery accepted a damaged snapshot", what)
		}
	}
	for i, start := range starts {
		end := len(image)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		mid := start + (end-start)/2
		bootFails("boundary cut", image[:start])
		bootFails("mid-record cut", image[:mid])
		img := append([]byte(nil), image...)
		img[mid] ^= 0x10
		bootFails("flipped", img)
	}
}
