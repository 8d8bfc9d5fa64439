// Command perfbench is the repository benchmark. It boots the system in
// process behind real loopback wire servers, drives one named workload
// from two client connections, checks every read against an in-process
// sequential oracle, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	bash perfbench/run.sh --workload ja2-large --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing instrumented.
// --trace 1 is the separate traced run: single-threaded passes that time
// and count calls into each layer's public functions, then the served
// load once untraced and once traced, and it prints the per-layer
// metrics. METRICS.md says what each metric means and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, every workload
// alike. A single-node workload has no writer during its window, so its
// write latencies come from a short write phase after it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// does not run (the cluster and WAL on a single node) reports 0.
var perLayer = []metricDef{
	{"sqlparser.parse_us", "us"},
	{"schema.resolve_us", "us"},
	{"classify.profile_us", "us"},
	{"transform.transform_us", "us"},
	{"transform.fallback_frac", "ratio"},
	{"planner.run_ms", "ms"},
	{"planner.nl_join_frac", "ratio"},
	{"exec.alloc_mb_per_query", "MB"},
	{"exec.rows_per_query", "rows"},
	{"storage.page_reads_per_query", "pages"},
	{"storage.page_writes_per_query", "pages"},
	{"engine.query_us", "us"},
	{"wire.overhead_us", "us"},
	{"wire.bytes_per_row", "B"},
	{"wire.codec_us", "us"},
	{"cluster.analyze_us", "us"},
	{"cluster.exec_ms", "ms"},
	{"cluster.link_bytes_per_read", "B"},
	{"cluster.link_bytes_per_write", "B"},
	{"cluster.link_turns_per_read", "count"},
	{"cluster.worker_busy_ms_per_read", "ms"},
	{"cluster.worker_page_io_per_read", "pages"},
	{"cluster.gathers_per_read", "count"},
	{"wal.appends_per_write", "count"},
	{"wal.bytes_per_write", "B"},
	{"wal.appends_per_read", "count"},
	{"spill.bytes_per_query", "B"},
	{"loadgen.write_lag_ms", "ms"},
	{"trace.read_p50_ms_untraced", "ms"},
	{"trace.read_p50_ms_traced", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed before the result
}

func (r *report) set(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metric{values[d.name], d.unit}
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, one line per metric, and the JSON result as
// the last line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "perfbench:", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "perfbench:   %-32s %14s %s\n", n, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	errFrac := 0.0
	if r.Attempted > 0 {
		errFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "perfbench:   %-32s %14s ratio (%d of %d operations)\n", "error_frac",
		strconv.FormatFloat(errFrac, 'f', -1, 64), r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// runConfig is one invocation.
type runConfig struct {
	def      workloadDef
	seed     int64
	window   time.Duration
	traceOut string // a traced run writes its spans here
}

// runDeadline bounds a whole run; a run that has not finished by then
// has hung, and the process exits without a result.
const runDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of the generated data and the query order")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames, "|"))
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within %s\n", runDeadline)
		os.Exit(3)
	})
	cfg := runConfig{def: def, seed: *seed, window: time.Duration(*seconds) * time.Second}
	var rep *report
	var err error
	if *trace == 1 {
		cfg.traceOut = fmt.Sprintf(".bench_build/trace/%s-seed%d.json", def.name, *seed)
		rep, err = runTraced(cfg)
	} else {
		rep, err = runMeasured(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// slicePeaks returns the peak RSS (MB) of each slice of length d until
// stop closes, resetting the kernel's peak at every slice boundary.
func slicePeaks(d time.Duration, stop <-chan struct{}) []float64 {
	var peaks []float64
	t := time.NewTicker(d)
	defer t.Stop()
	resetPeakRSS()
	for {
		select {
		case <-stop:
			return peaks
		case <-t.C:
		}
		p, err := peakRSSMB()
		if err == nil {
			peaks = append(peaks, p)
		}
		resetPeakRSS()
	}
}

// resetPeakRSS sets VmHWM back to the current resident set size.
func resetPeakRSS() {
	// Best effort: where the kernel refuses, VmHWM stays the lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
