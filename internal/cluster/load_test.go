package cluster

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// loadSink is a stand-in worker that grants the cluster feature,
// acknowledges every LoadRows frame with its row count, and records the
// payloads it received.
type loadSink struct {
	lis net.Listener
	mu  sync.Mutex
	got [][]byte
}

func newLoadSink(t *testing.T) *loadSink {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ls := &loadSink{lis: lis}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go ls.serve(t, nc)
		}
	}()
	return ls
}

// take returns the payloads received since the last take.
func (ls *loadSink) take() [][]byte {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	got := ls.got
	ls.got = nil
	return got
}

func (ls *loadSink) serve(t *testing.T, nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	typ, payload, err := wire.ReadFrame(br)
	if err != nil || typ != wire.FrameHello {
		return
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		return
	}
	granted := h.Flags & (wire.FeatureChecksum | wire.FeatureCluster)
	if wire.WriteFrame(nc, wire.FrameHello, wire.EncodeHello(wire.Hello{Version: wire.Version, Flags: granted})) != nil {
		return
	}
	codec := wire.Codec{Checksums: granted&wire.FeatureChecksum != 0}
	for {
		typ, payload, err := codec.ReadFrame(br)
		if err != nil {
			return
		}
		if typ != wire.FrameLoadRows {
			t.Errorf("sink: got frame 0x%02x, want LoadRows", typ)
			return
		}
		rec, err := wal.DecodePayload(payload)
		if err != nil || rec.Type != wal.RecInsert {
			t.Errorf("sink: payload is not an insert record: %v", err)
			return
		}
		ls.mu.Lock()
		ls.got = append(ls.got, payload)
		ls.mu.Unlock()
		if codec.WriteFrame(nc, wire.FrameDone, wire.EncodeDone(wire.Done{Rows: int64(len(rec.Rows))})) != nil {
			return
		}
	}
}

// TestInsertRowsSplitsBySize: rows whose record would exceed the frame
// limit go out as several LoadRows frames, each within the limit, that
// together carry every row once and in order.
func TestInsertRowsSplitsBySize(t *testing.T) {
	sink := newLoadSink(t)
	co, err := New(Config{Workers: []string{sink.lis.Addr().String()}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	rows := make([]storage.Tuple, 100)
	for i := range rows {
		rows[i] = storage.Tuple{value.NewInt(int64(i)), value.NewString(strings.Repeat("x", i%13))}
	}
	const limit = 256
	n, err := co.insertRows(0, "T__S0", rows, limit)
	if err != nil || n != int64(len(rows)) {
		t.Fatalf("insertRows = %d, %v; want %d rows", n, err, len(rows))
	}

	frames := sink.take()
	if len(frames) < 2 {
		t.Fatalf("%d frames sent, want the rows split across several", len(frames))
	}
	var back []storage.Tuple
	for _, p := range frames {
		if len(p) > limit {
			t.Errorf("frame payload of %d bytes exceeds the %d-byte limit", len(p), limit)
		}
		rec, _ := wal.DecodePayload(p)
		if rec.Table != "T__S0" {
			t.Errorf("frame for table %q", rec.Table)
		}
		back = append(back, rec.Rows...)
	}
	if len(back) != len(rows) {
		t.Fatalf("frames carried %d rows, want %d", len(back), len(rows))
	}
	for i := range rows {
		if back[i][0].Int() != rows[i][0].Int() || back[i][1].Str() != rows[i][1].Str() {
			t.Fatalf("row %d = %v, want %v", i, back[i], rows[i])
		}
	}

	// One frame when everything fits; a row that cannot fit alone fails
	// before anything is sent.
	if _, err := co.insertRows(0, "T__S0", rows, loadLimit); err != nil || len(sink.take()) != 1 {
		t.Errorf("insertRows at loadLimit: %v; want one frame", err)
	}
	huge := []storage.Tuple{{value.NewInt(1), value.NewString(strings.Repeat("y", 2*limit))}}
	if _, err := co.insertRows(0, "T__S0", huge, limit); err == nil || len(sink.take()) != 0 {
		t.Errorf("oversized row: %v; want an error and no frame", err)
	}
}
