package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// canonical renders a result as the wire's own row encoding, so a byte
// comparison covers column names, row order and every value byte.
func canonical(cols []string, rows []storage.Tuple) []byte {
	return wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: rows})
}

// canonSorted puts rows in a canonical total order before encoding: a
// distributed gather concatenates shard-major, so order-insensitive
// byte identity is the right comparison against the oracle.
func canonSorted(cols []string, rows []storage.Tuple) []byte {
	sorted := append([]storage.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			c, err := value.TotalCompare(a[k], b[k])
			if err != nil {
				c = bytes.Compare(wire.AppendValue(nil, a[k]), wire.AppendValue(nil, b[k]))
			}
			if c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return canonical(cols, sorted)
}

// tally counts operations and keeps the first few failure messages.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	messages  []string
}

func (t *tally) add(failed bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if failed {
		t.failed++
		if len(t.messages) < 10 {
			t.messages = append(t.messages, fmt.Sprintf(format, args...))
		}
	}
}

// checker compares served results with the oracle's answers.
type checker struct {
	mix      []query
	expected [][]byte
	sorted   bool // compare canonically sorted (cluster gathers)
}

func (c *checker) matches(qi int, cols []string, rows []storage.Tuple) bool {
	var got []byte
	if c.sorted {
		got = canonSorted(cols, rows)
	} else {
		got = canonical(cols, rows)
	}
	return bytes.Equal(got, c.expected[qi])
}

// span is one timed call, kept in memory and written out at the end of
// a traced run. Spans of one request share req; parent names the span
// that caused this one ("" for a root).
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the run began
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"` // Dur minus the time children cover
}

// spanLog collects spans from any goroutine.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// request mints a request id. A nil log records nothing: the untraced
// phases pass one.
func (l *spanLog) request() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
}

// record logs a finished leaf span (self time = duration).
func (l *spanLog) record(req int64, name, parent string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.add(span{Req: req, Name: name, Parent: parent, Start: start.Sub(l.t0).Nanoseconds(), Dur: d.Nanoseconds(), Self: d.Nanoseconds()})
}

// loadResult is what one timed phase measured.
type loadResult struct {
	reads    []time.Duration // latencies of reads completed inside the window
	writes   []time.Duration // write ack latencies (open loop: from each write's due time)
	writeLag []time.Duration // open loop: how late each write was sent
}

// closedLoop drives the read mix from each connection for the window:
// every connection sends its next query only when the previous answer
// has arrived, cycling through seeded permutations of the mix. Reads
// finishing after the window are checked but not timed.
func closedLoop(conns []*client.Conn, chk *checker, seed int64, window time.Duration, ops *tally, spans *spanLog) []time.Duration {
	start := time.Now()
	deadline := start.Add(window)
	lats := make([][]time.Duration, len(conns))
	var wg sync.WaitGroup
	for ci, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(ci)))
			for time.Now().Before(deadline) {
				for _, qi := range rng.Perm(len(chk.mix)) {
					if !time.Now().Before(deadline) {
						break
					}
					q := chk.mix[qi]
					req := spans.request()
					t0 := time.Now()
					res, err := conn.Collect(q.sql, client.Options{Strategy: q.wireStrat})
					d := time.Since(t0)
					spans.record(req, "client.read", "", t0, d)
					if err != nil {
						ops.add(true, "read %s: %v", q.name, err)
						return
					}
					ok := chk.matches(qi, res.Columns, res.Rows)
					ops.add(!ok, "read %s: result differs from the oracle", q.name)
					if ok && t0.Add(d).Before(deadline) {
						lats[ci] = append(lats[ci], d)
					}
				}
			}
		}()
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all
}

// openLoop sends single-row INSERTs into the ledger for the window at a
// fixed mean rate, whatever the system's pace. The gaps between due
// times are exponential (a Poisson process, seeded), so the writes do
// not fall into step with the closed-loop reader. A write's latency
// runs from its due time to the ack, so a stall also counts against
// every write queued behind it.
func openLoop(conn *client.Conn, rate float64, window time.Duration, seed int64, led *ledger, ops *tally, spans *spanLog) (lat, lag []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= window {
			return lat, lag
		}
		waitUntil(due)
		req := spans.request()
		sent, ack, ok, err := insertOne(conn, led, ops)
		spans.record(req, "client.write", "", sent, ack.Sub(sent))
		if err != nil {
			return lat, lag
		}
		if ok {
			lat = append(lat, ack.Sub(due))
			lag = append(lag, sent.Sub(due))
		}
	}
}

// closedWrites sends single-row INSERTs into the ledger back to back for
// d, each as soon as the previous one is acknowledged.
func closedWrites(conn *client.Conn, d time.Duration, led *ledger, ops *tally) []time.Duration {
	var lat []time.Duration
	for end := time.Now().Add(d); time.Now().Before(end); {
		sent, ack, ok, err := insertOne(conn, led, ops)
		if err != nil {
			break
		}
		if ok {
			lat = append(lat, ack.Sub(sent))
		}
	}
	return lat
}

// insertOne sends the ledger's next INSERT and tallies the outcome: ok
// when exactly one row was acknowledged, err when the connection failed.
func insertOne(conn *client.Conn, led *ledger, ops *tally) (sent, ack time.Time, ok bool, err error) {
	k := led.next()
	sent = time.Now()
	res, err := conn.Collect(ledgerInsert(k), client.Options{})
	ack = time.Now()
	ok = err == nil && res.Done.Rows == 1
	ops.add(!ok, "write %d: %v", k, err)
	if ok {
		led.ack(k)
	}
	return sent, ack, ok, err
}

// waitUntil sleeps until shortly before t and spins the rest of the
// way: timer slack would otherwise make the generator, not the system,
// the largest part of a fast write's latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// verifyLedger checks that the ledger holds every acknowledged key
// exactly once and nothing that was never sent.
func verifyLedger(conn *client.Conn, acked []int64, sent func(int64) bool) error {
	res, err := conn.Collect("SELECT K FROM LEDGER", client.Options{})
	if err != nil {
		return fmt.Errorf("ledger read: %w", err)
	}
	seen := make(map[int64]int, len(res.Rows))
	for _, row := range res.Rows {
		k := row[0].Int()
		if !sent(k) {
			return fmt.Errorf("ledger holds key %d that was never written", k)
		}
		seen[k]++
	}
	for _, k := range acked {
		if seen[k] != 1 {
			return fmt.Errorf("ledger holds acknowledged key %d %d times", k, seen[k])
		}
	}
	return nil
}

// percentileMS returns the p-th percentile (0 < p <= 100) of ds by the
// nearest-rank rule, in milliseconds; 0 when ds is empty.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return float64(s[max(rank, 1)-1]) / float64(time.Millisecond)
}
