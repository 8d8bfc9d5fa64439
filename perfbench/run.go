package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/storage"
)

const (
	// readConns is the number of client connections every workload uses.
	readConns = 2
	// clusterWriteRate is the open-loop writer's mean rate on cluster-rw,
	// per second.
	clusterWriteRate = 5.0
	// A single-node workload has no writer in its window; after it, one
	// connection writes back to back for writePhase.
	writePhase = 2 * time.Second
	// clusterWritePass is the number of sequential in-process writes the
	// traced run counts link and WAL traffic over.
	clusterWritePass = 50
)

// ledger hands out the writer's keys and remembers which were acked.
type ledger struct {
	mu     sync.Mutex
	issued int64
	acked  []int64
}

func (l *ledger) next() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.issued++
	return l.issued
}

func (l *ledger) ack(k int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acked = append(l.acked, k)
}

func (l *ledger) sent(k int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return k >= 1 && k <= l.issued
}

// prepare generates the workload's data from the seed and computes the
// oracle's answer to every read of the mix on an in-process engine,
// queried sequentially.
func prepare(def workloadDef, seed int64) (dataset, *checker, *engine.DB, error) {
	data := def.gen(seed)
	oracle, err := loadEngine(def, data)
	if err != nil {
		return dataset{}, nil, nil, fmt.Errorf("oracle load: %w", err)
	}
	chk := &checker{mix: def.reads, sorted: def.cluster}
	for _, q := range def.reads {
		res, err := oracle.Query(q.sql, engine.Options{Strategy: q.engStrat})
		if err != nil {
			return dataset{}, nil, nil, fmt.Errorf("oracle %s: %w", q.name, err)
		}
		if chk.sorted {
			chk.expected = append(chk.expected, canonSorted(res.Columns, res.Rows))
		} else {
			chk.expected = append(chk.expected, canonical(res.Columns, res.Rows))
		}
	}
	return data, chk, oracle, nil
}

// loadEngine builds a single-node engine holding the workload's data.
func loadEngine(def workloadDef, data dataset) (*engine.DB, error) {
	db := engine.New(bufferPages)
	if def.cluster {
		_, err := db.Exec(data.script, engine.Options{})
		return db, err
	}
	return db, data.load(db)
}

// served runs one timed window. On a single node both connections read
// in a closed loop. On the cluster the first connection reads in a
// closed loop while the second writes in open loop.
func served(conns []*client.Conn, chk *checker, def workloadDef, seed int64, window time.Duration, led *ledger, ops *tally, spans *spanLog) loadResult {
	var r loadResult
	if !def.cluster {
		r.reads = closedLoop(conns, chk, seed, window, ops, spans)
		return r
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.writes, r.writeLag = openLoop(conns[1], clusterWriteRate, window, seed, led, ops, spans)
	}()
	r.reads = closedLoop(conns[:1], chk, seed, window, ops, spans)
	wg.Wait()
	return r
}

// warmUp runs the whole mix once on every connection, checked but not
// timed, so lazy set-up finishes before the window opens.
func warmUp(conns []*client.Conn, chk *checker, ops *tally) {
	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi, q := range chk.mix {
				res, err := conn.Collect(q.sql, client.Options{Strategy: q.wireStrat})
				if err != nil {
					ops.add(true, "warm-up %s: %v", q.name, err)
					return
				}
				ops.add(!chk.matches(qi, res.Columns, res.Rows), "warm-up %s: result differs from the oracle", q.name)
			}
		}()
	}
	wg.Wait()
}

// finalChecks verifies the ledger and, on the cluster, that no staging
// table outlived its query. Each check counts as one operation.
func finalChecks(sys *system, conn *client.Conn, led *ledger, ops *tally) {
	err := verifyLedger(conn, led.acked, led.sent)
	ops.add(err != nil, "ledger: %v", err)
	if sys.co != nil {
		n := sys.co.LiveStaging()
		ops.add(n != 0, "%d staging table(s) still live after the run", n)
	}
}

// shutdown closes the client connections and the system; a failure to
// stop cleanly counts as a failed operation.
func shutdown(sys *system, conns []*client.Conn, ops *tally) {
	for _, c := range conns {
		c.Close()
	}
	err := sys.close()
	ops.add(err != nil, "shutdown: %v", err)
}

// bootTimed boots the system def.setupRounds times, each time from a
// collected heap, and keeps the last one running. setup covers boot,
// data load and dialing the clients: everything until the first query
// can be sent.
func bootTimed(def workloadDef, data dataset, ops *tally) (*system, []*client.Conn, float64, error) {
	var setups []float64
	var sys *system
	var conns []*client.Conn
	for i := range def.setupRounds {
		if i > 0 {
			shutdown(sys, conns, ops)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if sys, err = boot(def, data); err != nil {
			return nil, nil, 0, fmt.Errorf("boot: %w", err)
		}
		if conns, err = sys.dial(readConns); err != nil {
			sys.close()
			return nil, nil, 0, fmt.Errorf("dial: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sort.Float64s(setups)
	return sys, conns, setups[len(setups)/2], nil
}

// runMeasured is an untraced run: the end-to-end metrics.
func runMeasured(cfg runConfig) (*report, error) {
	def := cfg.def
	data, chk, _, err := prepare(def, cfg.seed)
	if err != nil {
		return nil, err
	}
	ops := &tally{}
	sys, conns, setup, err := bootTimed(def, data, ops)
	if err != nil {
		return nil, err
	}
	warmUp(conns, chk, ops)
	led := &ledger{}
	runtime.GC()
	// Peak RSS is sampled in 100 ms slices over the window.
	stop := make(chan struct{})
	var peaks []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		peaks = slicePeaks(100*time.Millisecond, stop)
	}()
	r := served(conns, chk, def, cfg.seed, cfg.window, led, ops, nil)
	close(stop)
	wg.Wait()
	if !def.cluster {
		// A single node has no writer in its window: the first
		// connection writes back to back after it.
		runtime.GC()
		r.writes = closedWrites(conns[0], writePhase, led, ops)
	}
	finalChecks(sys, conns[0], led, ops)
	shutdown(sys, conns, ops)
	if len(peaks) == 0 {
		return nil, fmt.Errorf("no peak RSS readable from /proc/self/status")
	}
	// The window's single highest peak swings by a quarter from run to
	// run with GC timing; the 95th percentile of 100 ms peaks does not.
	sort.Float64s(peaks)
	rss := peaks[len(peaks)*95/100]

	rep := &report{}
	rep.set(endToEnd, map[string]float64{
		"setup_s":      setup,
		"qps":          float64(len(r.reads)) / cfg.window.Seconds(),
		"read_p50_ms":  percentileMS(r.reads, 50),
		"read_p95_ms":  percentileMS(r.reads, 95),
		"write_p50_ms": percentileMS(r.writes, 50),
		"write_p95_ms": percentileMS(r.writes, 95),
		"peak_rss_mb":  rss,
	})
	rep.notef("workload %s, seed %d, %s window, %d connection(s)", def.name, cfg.seed, cfg.window, readConns)
	rep.notef("%d reads timed in the window, %d writes acked", len(r.reads), len(r.writes))
	rep.finish(ops)
	return rep, nil
}

// finish copies the operation tally into the report.
func (r *report) finish(ops *tally) {
	r.Attempted, r.Failed = ops.attempted, ops.failed
	r.Correct = ops.failed == 0
	for _, m := range ops.messages {
		r.notef("FAILED: %s", m)
	}
}

// runTraced is the traced run: the per-layer metrics.
func runTraced(cfg runConfig) (*report, error) {
	def := cfg.def
	data, chk, oracle, err := prepare(def, cfg.seed)
	if err != nil {
		return nil, err
	}
	ops := &tally{}
	spans := newSpanLog()
	v := make(map[string]float64)
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// 1. The single-threaded layer pass on a freshly loaded engine.
	fresh, err := loadEngine(def, data)
	if err != nil {
		return nil, err
	}
	lp, err := runLayerPass(fresh, chk, def.passReps, spans, ops)
	if err != nil {
		return nil, err
	}
	v["sqlparser.parse_us"] = per(us(lp.parse), lp.queries)
	v["schema.resolve_us"] = per(us(lp.resolve), lp.queries)
	v["classify.profile_us"] = per(us(lp.profile), lp.queries)
	v["transform.transform_us"] = per(us(lp.transform), lp.transformed)
	v["transform.fallback_frac"] = per(float64(lp.fellBack), lp.transformed)
	v["planner.run_ms"] = per(ms(lp.plan), lp.planned)
	v["planner.nl_join_frac"] = per(float64(lp.nlJoins), lp.joins)
	v["exec.alloc_mb_per_query"] = per(float64(lp.allocBytes)/(1<<20), lp.executed)
	v["exec.rows_per_query"] = per(float64(lp.execRows), lp.queries)
	v["storage.page_reads_per_query"] = per(float64(lp.io.Reads), lp.queries)
	v["storage.page_writes_per_query"] = per(float64(lp.io.Writes), lp.queries)
	v["engine.query_us"] = per(us(lp.engineQuery), lp.queries)
	v["wire.bytes_per_row"] = per(float64(lp.wireBytes), int(lp.wireRows))
	v["wire.codec_us"] = per(us(lp.codec), lp.queries)

	// 2. The served system, booted once.
	sys, err := boot(def, data)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	conns, err := sys.dial(readConns)
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	led := &ledger{}

	// 3. Cluster: the in-process read and write passes through the
	// coordinator, with the worker links counted.
	if def.cluster {
		sys.setLinkCounting(true)
		cp, err := runClusterPass(sys, oracle.Catalog(), chk, def.passReps, spans, ops)
		if err != nil {
			shutdown(sys, conns, ops)
			return nil, err
		}
		wc, err := runClusterWrites(sys, led, clusterWritePass, spans, ops)
		if err != nil {
			shutdown(sys, conns, ops)
			return nil, err
		}
		sys.setLinkCounting(false)
		v["cluster.analyze_us"] = per(us(cp.analyze), len(chk.mix)*def.passReps)
		v["cluster.exec_ms"] = per(ms(cp.exec), cp.reads)
		rc := cp.counters
		v["cluster.link_bytes_per_read"] = per(float64(rc.link.bytes), cp.reads)
		v["cluster.link_turns_per_read"] = per(float64(rc.link.turns), cp.reads)
		v["cluster.worker_busy_ms_per_read"] = per(ms(rc.link.busy), cp.reads)
		v["cluster.worker_page_io_per_read"] = per(float64(rc.pageIO), cp.reads)
		v["cluster.gathers_per_read"] = per(float64(rc.gathers), cp.reads)
		v["wal.appends_per_read"] = per(float64(rc.walAppends), cp.reads)
		v["cluster.link_bytes_per_write"] = per(float64(wc.link.bytes), clusterWritePass)
		v["wal.appends_per_write"] = per(float64(wc.walAppends), clusterWritePass)
		v["wal.bytes_per_write"] = per(float64(wc.walBytes), clusterWritePass)
	}

	// 4. Wire overhead.
	overhead, notes, err := wireOverhead(sys, conns[0], chk, def.passReps, spans, ops)
	if err != nil {
		shutdown(sys, conns, ops)
		return nil, err
	}
	v["wire.overhead_us"] = us(overhead)

	// 5. The served load, half the window untraced and half traced.
	warmUp(conns, chk, ops)
	spillBefore := sys.spillBytes()
	half := cfg.window / 2
	runtime.GC()
	untraced := served(conns, chk, def, cfg.seed, half, led, ops, nil)
	sys.setLinkCounting(true)
	runtime.GC()
	traced := served(conns, chk, def, cfg.seed, half, led, ops, spans)
	sys.setLinkCounting(false)
	v["trace.read_p50_ms_untraced"] = percentileMS(untraced.reads, 50)
	v["trace.read_p50_ms_traced"] = percentileMS(traced.reads, 50)
	var lag time.Duration
	lags := append(untraced.writeLag, traced.writeLag...)
	for _, l := range lags {
		lag += l
	}
	v["loadgen.write_lag_ms"] = per(ms(lag), len(lags))
	servedReads := len(untraced.reads) + len(traced.reads)
	v["spill.bytes_per_query"] = per(float64(lp.spillBytes+sys.spillBytes()-spillBefore), lp.queries+servedReads)

	finalChecks(sys, conns[0], led, ops)
	shutdown(sys, conns, ops)
	if err := writeSpans(cfg.traceOut, spans); err != nil {
		return nil, err
	}

	rep := &report{}
	rep.set(perLayer, v)
	rep.notef("workload %s, seed %d, traced run, %s served window", def.name, cfg.seed, cfg.window)
	rep.notef("%d spans written to %s", len(spans.spans), cfg.traceOut)
	rep.notes = append(rep.notes, notes...)
	rep.finish(ops)
	return rep, nil
}

// wireOverhead runs each query of the mix over one idle connection and
// in process on the same served system, alternating which goes first so
// neither always inherits the other's warm caches. It returns the mean
// over the mix of the two medians' difference, and one line per query.
func wireOverhead(sys *system, conn *client.Conn, chk *checker, reps int, spans *spanLog, ops *tally) (time.Duration, []string, error) {
	var total time.Duration
	var notes []string
	for qi, q := range chk.mix {
		var local, remote []time.Duration
		for rep := range reps {
			req := spans.request()
			for side := range 2 {
				t0 := time.Now()
				var cols []string
				var rows []storage.Tuple
				if (rep+side)%2 == 0 {
					var res *engine.Result
					var err error
					if sys.co != nil {
						res, err = sys.co.ExecSQL(q.sql, engine.Options{Strategy: q.engStrat})
					} else {
						res, err = sys.db.Query(q.sql, engine.Options{Strategy: q.engStrat})
					}
					if err != nil {
						return 0, nil, fmt.Errorf("wire pass %s: %w", q.name, err)
					}
					local = append(local, time.Since(t0))
					spans.record(req, "in_process", "", t0, time.Since(t0))
					cols, rows = res.Columns, res.Rows
				} else {
					res, err := conn.Collect(q.sql, client.Options{Strategy: q.wireStrat})
					if err != nil {
						return 0, nil, fmt.Errorf("wire pass %s: %w", q.name, err)
					}
					remote = append(remote, time.Since(t0))
					spans.record(req, "client.read", "", t0, time.Since(t0))
					cols, rows = res.Columns, res.Rows
				}
				ops.add(!chk.matches(qi, cols, rows), "wire pass %s: result differs from the oracle", q.name)
			}
		}
		total += median(remote) - median(local)
		notes = append(notes, fmt.Sprintf("%-20s in process %10.3f ms, over the wire %10.3f ms", q.name,
			float64(median(local))/float64(time.Millisecond), float64(median(remote))/float64(time.Millisecond)))
	}
	return total / time.Duration(len(chk.mix)), notes, nil
}

// spillBytes sums the spill bytes written by the served engines.
func (sys *system) spillBytes() int64 {
	var n int64
	for _, db := range append([]*engine.DB{sys.db}, sys.workers...) {
		if db != nil {
			n += db.SpillStats().Bytes
		}
	}
	return n
}

func writeSpans(path string, spans *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
