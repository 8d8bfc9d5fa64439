package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The benchmark's self-test: short runs of every workload emit exactly
// the metrics BENCHMARK.json names, with its units; a second seed gives
// the same set; and the counts a single-threaded traced pass makes
// repeat exactly on one seed.
//
//	cd perfbench && go test -timeout 900s .

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// checkMetrics asserts rep carries exactly defs, with their units.
func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("run not correct: attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.notes)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
	}
}

func TestShortRuns(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			def := workloads[name]
			for _, seed := range []int64{1, 2} {
				rep, err := runMeasured(runConfig{def: def, seed: seed, window: time.Second})
				if err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, rep, endToEnd)
				for _, d := range endToEnd {
					if rep.Metrics[d.name].Value <= 0 {
						t.Errorf("seed %d: %s = %v, want > 0", seed, d.name, rep.Metrics[d.name].Value)
					}
				}
			}
		})
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	deterministic := []string{
		"storage.page_reads_per_query",
		"storage.page_writes_per_query",
		"wal.appends_per_write",
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			def := workloads[name]
			traced := func(seed int64) *report {
				out := filepath.Join(t.TempDir(), "spans.json")
				rep, err := runTraced(runConfig{def: def, seed: seed, window: time.Second, traceOut: out})
				if err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, rep, perLayer)
				if _, err := os.Stat(out); err != nil {
					t.Errorf("spans not written: %v", err)
				}
				return rep
			}
			first, second := traced(1), traced(1)
			for _, m := range deterministic {
				if a, b := first.Metrics[m].Value, second.Metrics[m].Value; a != b {
					t.Errorf("%s differs between two passes on one seed: %v vs %v", m, a, b)
				}
			}
			if first.Metrics["storage.page_reads_per_query"].Value <= 0 {
				t.Error("storage.page_reads_per_query is 0: the layer pass read no pages")
			}
			traced(2) // another seed: checkMetrics asserts the same set
		})
	}
}
