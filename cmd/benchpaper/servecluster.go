package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/rowcodec"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// The cluster load harness: -serve-load -cluster N boots N in-process
// worker servers plus a coordinator fronted by its own wire server,
// loads a generated supplier database through the coordinator (so the
// rows are hash-sharded for real), and drives the distributable query
// mix from -connections clients. Every result is compared, canonically
// sorted, against a single-node sequential oracle; the report shows
// aggregate throughput and the per-node gather counts, which is the
// scaling record EXPERIMENTS.md E14 captures for 1 vs 2 vs 4 nodes.
//
//	benchpaper -serve-load -cluster 4 -connections 8 -rounds 20

var serveCluster int
var serveReplicas int

// clusterDataSQL generates the sharded benchmark database: 240
// suppliers (some with NULL keys, some with no shipments — the COUNT=0
// groups PR 7 fought for) and ~1400 shipments, deterministically.
func clusterDataSQL() string {
	rng := rand.New(rand.NewSource(20260808))
	cities := []string{"PARIS", "LONDON", "ROME", "ATHENS", "OSLO", "CAIRO"}
	var b strings.Builder
	b.WriteString("CREATE TABLE S (SNO INTEGER, SNAME TEXT, CITY TEXT, PRIMARY KEY (SNO));\n")
	b.WriteString("CREATE TABLE SP (SNO INTEGER, PNO INTEGER, QTY INTEGER);\n")
	b.WriteString("INSERT INTO S VALUES\n")
	const suppliers = 240
	for i := 1; i <= suppliers; i++ {
		if i > 1 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "  (%d, 'SUP%03d', '%s')", i, i, cities[rng.Intn(len(cities))])
	}
	// A NULL supplier key: the partitioner must keep it with the other
	// NULLs so NULL-safe predicates see the whole equivalence class.
	b.WriteString(",\n  (NULL, 'GHOST', 'LIMBO');\n")
	b.WriteString("INSERT INTO SP VALUES\n")
	first := true
	for i := 1; i <= suppliers; i++ {
		if i%8 == 0 {
			continue // every 8th supplier ships nothing: a COUNT=0 group
		}
		for n := rng.Intn(9); n >= 0; n-- {
			if !first {
				b.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(&b, "  (%d, %d, %d)", i, 10*(1+rng.Intn(9)), 5+rng.Intn(500))
		}
	}
	b.WriteString(",\n  (NULL, 10, 999), (NULL, 20, 888);\n")
	return b.String()
}

// clusterMix is the distributable slice of the paper workload: the
// NEST-JA2 flagship (COUNT with empty groups), IN, SUM, NOT EXISTS and
// quantified ALL, all correlated on the placement key SNO.
var clusterMix = []loadQuery{
	{"count-zero", `SELECT S.SNO, S.SNAME FROM S
		WHERE 0 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"sum-ja2", `SELECT S.SNAME FROM S
		WHERE 900 <= (SELECT SUM(SP.QTY) FROM SP WHERE SP.SNO = S.SNO)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"in", `SELECT S.SNAME FROM S WHERE S.SNO IN (SELECT SP.SNO FROM SP WHERE SP.QTY > 490)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"not-exists", `SELECT S.SNAME FROM S
		WHERE NOT EXISTS (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"gt-all", `SELECT S.SNAME FROM S
		WHERE S.SNO > ALL (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)`,
		wire.StrategyTransform, engine.TransformJA2},
	{"count-ni", `SELECT S.SNO, S.SNAME FROM S
		WHERE 0 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)`,
		wire.StrategyNested, engine.NestedIteration},
}

// canonSorted puts rows in a canonical total order before encoding: a
// distributed gather concatenates shard-major, so order-insensitive
// byte identity is the correct cross-check against the oracle.
func canonSorted(cols []string, rows []storage.Tuple) []byte {
	sorted := append([]storage.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			c, err := value.TotalCompare(a[k], b[k])
			if err != nil {
				c = bytes.Compare(rowcodec.AppendValue(nil, a[k]), rowcodec.AppendValue(nil, b[k]))
			}
			if c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return wire.EncodeRowBatch(wire.RowBatch{Columns: cols, Rows: sorted})
}

// expServeCluster runs the cluster load harness and exits non-zero on
// any mismatch, so scripts (and the E14 record) can gate on it.
func expServeCluster() {
	script := clusterDataSQL()

	// The oracle: one engine, the same SQL, queried sequentially.
	oracle := engine.New(32)
	if _, err := oracle.Exec(script, engine.Options{}); err != nil {
		fatal(fmt.Errorf("oracle load: %w", err))
	}
	expected := make([][]byte, len(clusterMix))
	for i, q := range clusterMix {
		res, err := oracle.Query(q.sql, engine.Options{Strategy: q.engStrat})
		if err != nil {
			fatal(fmt.Errorf("oracle %s: %w", q.name, err))
		}
		expected[i] = canonSorted(res.Columns, res.Rows)
	}

	// N workers, each a real wire server on a loopback port.
	workers := make([]string, serveCluster)
	workerSrvs := make([]*server.Server, serveCluster)
	for i := range workers {
		srv := server.New(engine.New(32), server.Config{Strategy: engine.TransformJA2})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		go srv.Serve(lis)
		defer srv.Shutdown(10 * time.Second)
		workers[i] = lis.Addr().String()
		workerSrvs[i] = srv
	}

	if serveReplicas < 1 {
		serveReplicas = 1
	}
	co, err := cluster.New(cluster.Config{
		Workers:       workers,
		Replicas:      serveReplicas,
		IOTimeout:     30 * time.Second,
		ProbeInterval: 250 * time.Millisecond,
	})
	if err != nil {
		fatal(err)
	}
	defer co.Close()
	if _, err := co.ExecSQL(script, engine.Options{}); err != nil {
		fatal(fmt.Errorf("cluster load: %w", err))
	}

	// Replicated-DML overhead: timed single-row commits, each acked only
	// after every live replica logged it. E15 compares R=1 against R=2.
	const dmlProbe = 200
	if _, err := co.ExecSQL("CREATE TABLE DML_PROBE (K INTEGER, V INTEGER, PRIMARY KEY (K))", engine.Options{}); err != nil {
		fatal(err)
	}
	t0 := time.Now()
	for k := 0; k < dmlProbe; k++ {
		if _, err := co.ExecSQL(fmt.Sprintf("INSERT INTO DML_PROBE VALUES (%d, %d)", k, k*3), engine.Options{}); err != nil {
			fatal(fmt.Errorf("DML probe commit %d: %w", k, err))
		}
	}
	fmt.Printf("serve-load: replicated DML: %d single-row commits at R=%d, mean %s/commit\n",
		dmlProbe, co.Replicas(), (time.Since(t0) / dmlProbe).Round(time.Microsecond))

	// Front the coordinator with its own server: clients speak to the
	// cluster exactly as they would to one node.
	front := server.NewBackend(co, server.Config{Strategy: engine.TransformJA2})
	frontLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	go front.Serve(frontLis)
	defer front.Shutdown(10 * time.Second)
	addr := frontLis.Addr().String()

	fmt.Printf("serve-load: cluster of %d workers behind coordinator %s\n", serveCluster, addr)
	fmt.Printf("serve-load: %d connections x %d rounds x %d queries\n",
		serveConns, serveRounds, len(clusterMix))

	results := make([]outcome, serveConns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &results[w]
			conn, err := client.Dial(addr, 10*time.Second)
			if err != nil {
				out.failures = append(out.failures, fmt.Sprintf("dial: %v", err))
				return
			}
			defer conn.Close()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for range serveRounds {
				for _, qi := range rng.Perm(len(clusterMix)) {
					q := clusterMix[qi]
					t0 := time.Now()
					res, err := conn.Collect(q.sql, client.Options{Strategy: q.wireStrat})
					if err != nil {
						out.failures = append(out.failures, fmt.Sprintf("%s: %v", q.name, err))
						return
					}
					out.latencies = append(out.latencies, time.Since(t0))
					if got := canonSorted(res.Columns, res.Rows); !bytes.Equal(got, expected[qi]) {
						out.mismatches = append(out.mismatches,
							fmt.Sprintf("%s: %d result bytes != oracle's %d", q.name, len(got), len(expected[qi])))
					}
					out.done++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var done int
	var lats []time.Duration
	bad := false
	for w, out := range results {
		done += out.done
		lats = append(lats, out.latencies...)
		for _, m := range out.mismatches {
			fmt.Printf("serve-load: MISMATCH conn %d: %s\n", w, m)
			bad = true
		}
		for _, f := range out.failures {
			fmt.Printf("serve-load: FAILURE conn %d: %s\n", w, f)
			bad = true
		}
	}
	if want := serveConns * serveRounds * len(clusterMix); done != want {
		fmt.Printf("serve-load: completed %d of %d queries\n", done, want)
		bad = true
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	fmt.Printf("serve-load: %d queries OK, %.1fs wall, aggregate %.0f q/s\n",
		done, elapsed.Seconds(), float64(done)/elapsed.Seconds())
	if len(lats) > 0 {
		fmt.Printf("serve-load: latency p50 %s p99 %s\n",
			lats[len(lats)*50/100].Round(time.Microsecond),
			lats[len(lats)*99/100].Round(time.Microsecond))
	}
	// Every gather fans out to every worker, so equal per-node counts
	// mean the coordinator kept the fleet uniformly busy.
	for i, n := range co.GatherCounts() {
		fmt.Printf("serve-load: node %d: %d gathers, %.0f q/s\n",
			i, n, float64(n)/elapsed.Seconds())
	}

	// Failover drill (R>1 only): kill one worker outright, measure how
	// long until the cluster serves its first complete query again, and
	// re-verify the whole mix against the oracle with the node gone.
	if serveReplicas > 1 {
		fmt.Println("serve-load: failover drill: killing worker 0")
		kill := time.Now()
		workerSrvs[0].Shutdown(0)
		var reroute time.Duration
		for {
			if _, err := co.ExecSQL(clusterMix[0].sql, engine.Options{Strategy: engine.TransformJA2}); err == nil {
				reroute = time.Since(kill)
				break
			}
			if time.Since(kill) > 30*time.Second {
				fmt.Println("serve-load: FAILURE: no query completed within 30s of the kill")
				os.Exit(1)
			}
		}
		fmt.Printf("serve-load: failover: first query served %s after the kill (worker states: %s)\n",
			reroute.Round(time.Millisecond), strings.Join(co.WorkerStates(), " "))
		for i, q := range clusterMix {
			res, err := co.ExecSQL(q.sql, engine.Options{Strategy: q.engStrat})
			if err != nil {
				fmt.Printf("serve-load: FAILURE post-failover %s: %v\n", q.name, err)
				bad = true
				continue
			}
			if got := canonSorted(res.Columns, res.Rows); !bytes.Equal(got, expected[i]) {
				fmt.Printf("serve-load: MISMATCH post-failover %s\n", q.name)
				bad = true
			}
		}
		if !bad {
			fmt.Println("serve-load: failover: full query mix byte-identical to the oracle with worker 0 dead")
		}
	}

	if bad {
		os.Exit(1)
	}
	fmt.Println("serve-load: all distributed results byte-identical (canonically sorted) to the oracle")
}
