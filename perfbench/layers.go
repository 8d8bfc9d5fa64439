package main

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/wire"
)

// layerPass is the single-threaded traced pass over a workload's read
// mix on a freshly loaded engine. Each query is taken through the
// engine's pipeline one public call at a time — sqlparser.Parse,
// schema.Resolve, classify.Profile, transform.Transform, planner.Run
// (or nested iteration), then the wire codec on the result — and then
// run once more whole through engine.DB.Query. One thread and a fresh
// engine make the page-I/O counts repeat exactly for a given seed.
type layerPass struct {
	queries                            int
	parse, resolve, profile, transform time.Duration
	transformed, fellBack              int
	executed                           int // planned or nested-iteration runs
	planned                            int
	plan                               time.Duration
	allocBytes                         uint64
	execRows                           int64
	io                                 storage.IOStats
	engineQuery                        time.Duration
	codec                              time.Duration
	wireBytes, wireRows                int64
	spillBytes                         int64
	joins, nlJoins                     int
}

// tempTuples matches the planner's note for each materialized temp.
var tempTuples = regexp.MustCompile(`materialized: (\d+) tuples`)

func runLayerPass(db *engine.DB, chk *checker, reps int, spans *spanLog, ops *tally) (*layerPass, error) {
	lp := &layerPass{}
	for range reps {
		for qi, q := range chk.mix {
			if err := lp.one(db, chk, qi, q, spans, ops); err != nil {
				return nil, fmt.Errorf("layer pass %s: %w", q.name, err)
			}
		}
	}
	// Join methods, as EXPLAIN reports them, once per query of the mix.
	for _, q := range chk.mix {
		text, err := db.Explain(q.sql, engine.Options{Strategy: q.engStrat})
		if err != nil {
			return nil, fmt.Errorf("explain %s: %w", q.name, err)
		}
		nl, all := countJoins(text)
		lp.nlJoins += nl
		lp.joins += all
	}
	return lp, nil
}

func (lp *layerPass) one(db *engine.DB, chk *checker, qi int, q query, spans *spanLog, ops *tally) error {
	req := spans.request()
	var children time.Duration
	timed := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		spans.record(req, name, "request", t0, d)
		children += d
		return d, err
	}
	start := time.Now()
	ioBefore := db.Store().Stats()
	lp.queries++

	var qb *ast.QueryBlock
	d, err := timed("sqlparser.parse", func() (err error) {
		qb, err = sqlparser.Parse(q.sql)
		return err
	})
	lp.parse += d
	if err != nil {
		return err
	}
	var outs []schema.OutputCol
	d, err = timed("schema.resolve", func() (err error) {
		outs, err = schema.Resolve(db.Catalog(), qb)
		return err
	})
	lp.resolve += d
	if err != nil {
		return err
	}
	d, _ = timed("classify.profile", func() error { classify.Profile(qb); return nil })
	lp.profile += d

	var rows []storage.Tuple
	nestedRun := q.engStrat == engine.NestedIteration
	if !nestedRun {
		var tr *transform.Result
		d, err = timed("transform.transform", func() (err error) {
			tr, err = transform.New(db.Catalog(), transform.JA2).Transform(qb)
			return err
		})
		lp.transform += d
		lp.transformed++
		switch {
		case errors.Is(err, transform.ErrNotTransformable):
			lp.fellBack++
			nestedRun = true
		case err != nil:
			return err
		default:
			pl := planner.New(db.Catalog(), db.Store(), planner.Options{
				Stats:      db.Statistics(),
				Indexes:    db.Indexes(),
				TempSuffix: fmt.Sprintf("#bench%d", req),
			})
			var alloc uint64
			d, err = timed("planner.run", func() (err error) {
				alloc = allocDelta(func() { rows, _, err = pl.Run(tr) })
				return err
			})
			if err != nil {
				return err
			}
			lp.plan += d
			lp.planned++
			lp.executed++
			lp.allocBytes += alloc
			for _, m := range tempTuples.FindAllStringSubmatch(fmt.Sprint(pl.Notes()), -1) {
				n, _ := strconv.ParseInt(m[1], 10, 64)
				lp.execRows += n
			}
		}
	}
	if nestedRun {
		ev := exec.NewEvaluator(db.Catalog(), db.Store())
		var alloc uint64
		_, err = timed("exec.nested_iteration", func() (err error) {
			alloc = allocDelta(func() { rows, _, err = ev.EvalQuery(qb) })
			return err
		})
		ev.Close()
		if err != nil {
			return err
		}
		lp.executed++
		lp.allocBytes += alloc
	}
	lp.execRows += int64(len(rows))
	io := db.Store().Stats().Sub(ioBefore)
	lp.io.Reads += io.Reads
	lp.io.Writes += io.Writes

	cols := make([]string, len(outs))
	for i, o := range outs {
		cols[i] = o.Name
	}
	var enc []byte
	d, err = timed("wire.codec", func() error {
		enc = wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: rows})
		_, err := wire.DecodeRowBatch(enc)
		return err
	})
	if err != nil {
		return err
	}
	lp.codec += d
	lp.wireBytes += int64(len(enc))
	lp.wireRows += int64(len(rows))
	total := time.Since(start)
	spans.add(span{Req: req, Name: "request", Start: start.Sub(spans.t0).Nanoseconds(),
		Dur: total.Nanoseconds(), Self: (total - children).Nanoseconds()})
	ops.add(!chk.matches(qi, cols, rows), "layer pass %s: result differs from the oracle", q.name)

	t0 := time.Now()
	res, err := db.Query(q.sql, engine.Options{Strategy: q.engStrat})
	d = time.Since(t0)
	spans.record(req, "engine.query", "", t0, d)
	if err != nil {
		return err
	}
	lp.engineQuery += d
	lp.spillBytes += res.Spill.Bytes
	return nil
}

// allocDelta reports the bytes fn allocated (runtime TotalAlloc).
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var (
	nlJoinNote  = regexp.MustCompile(`(?m)^\s+\S+: (outer )?nested-loops join on `)
	anyJoinNote = regexp.MustCompile(`(?m)^\s+\S+: ((outer )?nested-loops join on |(outer )?merge join \S+ with |.*hash join|NULL-aware anti-join)`)
)

// countJoins counts the joins an EXPLAIN report planned, and how many
// of them are nested loops.
func countJoins(explain string) (nl, all int) {
	return len(nlJoinNote.FindAllString(explain, -1)), len(anyJoinNote.FindAllString(explain, -1))
}

// clusterPass runs the read mix in process through the coordinator,
// one query at a time, counting each layer below it: cluster.Analyze,
// the traffic on every worker link, the workers' page I/Os and WAL
// appends, and the per-worker gathers.
type clusterPass struct {
	reads         int
	analyze, exec time.Duration
	counters      counterSnapshot // what the reads cost below the coordinator
}

func runClusterPass(sys *system, cat *schema.Catalog, chk *checker, reps int, spans *spanLog, ops *tally) (*clusterPass, error) {
	cp := &clusterPass{}
	for _, q := range chk.mix {
		qb, err := sqlparser.Parse(q.sql)
		if err != nil {
			return nil, err
		}
		if _, err := schema.Resolve(cat, qb); err != nil {
			return nil, err
		}
		for range reps {
			req := spans.request()
			t0 := time.Now()
			_, err := cluster.Analyze(qb)
			d := time.Since(t0)
			spans.record(req, "cluster.analyze", "", t0, d)
			if err != nil {
				return nil, fmt.Errorf("analyze %s: %w", q.name, err)
			}
			cp.analyze += d
		}
	}
	before := sys.counters()
	for range reps {
		for qi, q := range chk.mix {
			req := spans.request()
			t0 := time.Now()
			res, err := sys.co.ExecSQL(q.sql, engine.Options{Strategy: q.engStrat})
			d := time.Since(t0)
			spans.record(req, "cluster.exec", "", t0, d)
			if err != nil {
				return nil, fmt.Errorf("cluster %s: %w", q.name, err)
			}
			cp.reads++
			cp.exec += d
			ops.add(!chk.matches(qi, res.Columns, res.Rows),
				"cluster pass %s: result differs from the oracle", q.name)
		}
	}
	cp.counters = sys.counters().sub(before)
	return cp, nil
}

// runClusterWrites runs n single-row INSERTs into the ledger through the
// coordinator in process, one at a time, and returns what they cost
// the links and the worker logs.
func runClusterWrites(sys *system, led *ledger, n int, spans *spanLog, ops *tally) (counterSnapshot, error) {
	before := sys.counters()
	for range n {
		k := led.next()
		req := spans.request()
		t0 := time.Now()
		res, err := sys.co.ExecSQL(ledgerInsert(k), engine.Options{})
		spans.record(req, "cluster.exec", "", t0, time.Since(t0))
		if err != nil {
			return counterSnapshot{}, fmt.Errorf("cluster write %d: %w", k, err)
		}
		ops.add(res.Affected != 1, "cluster write %d: %d rows affected", k, res.Affected)
		if res.Affected == 1 {
			led.ack(k)
		}
	}
	return sys.counters().sub(before), nil
}

// counterSnapshot sums the cluster's counters across workers.
type counterSnapshot struct {
	link       linkSnapshot
	pageIO     int64
	walAppends int64
	walBytes   int64
	gathers    int64
}

func (sys *system) counters() counterSnapshot {
	var c counterSnapshot
	for i, db := range sys.workers {
		l := sys.links[i].snapshot()
		c.link.bytes += l.bytes
		c.link.turns += l.turns
		c.link.busy += l.busy
		c.pageIO += db.Store().Stats().Total()
		if st, ok := db.WALStats(); ok {
			c.walAppends += st.Appends
			c.walBytes += st.AppendedBytes
		}
	}
	if sys.co != nil {
		for _, g := range sys.co.GatherCounts() {
			c.gathers += g
		}
	}
	return c
}

func (c counterSnapshot) sub(o counterSnapshot) counterSnapshot {
	return counterSnapshot{
		link:       linkSnapshot{c.link.bytes - o.link.bytes, c.link.turns - o.link.turns, c.link.busy - o.link.busy},
		pageIO:     c.pageIO - o.pageIO,
		walAppends: c.walAppends - o.walAppends,
		walBytes:   c.walBytes - o.walBytes,
		gathers:    c.gathers - o.gathers,
	}
}

// setLinkCounting turns the worker link counters on or off.
func (sys *system) setLinkCounting(on bool) {
	for _, ls := range sys.links {
		ls.on.Store(on)
	}
}

// median returns the median of ds (0 for none).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
