package main

import (
	"os"
	"path/filepath"
	"testing"
)

// childEnv makes the test binary act as the benchmark's own executable
// when the parent under test spawns its setup and measure children.
const childEnv = "BENCH_SELFTEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:]))
	}
	// The benchmark runs from the repository root, where BENCHMARK.json
	// and .bench_build/ live.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestWorkloadsToy runs every workload at toy size through the same
// parent, children, oracle checks and traced replays as a real run.
func TestWorkloadsToy(t *testing.T) {
	t.Setenv(childEnv, "1")
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(sp, w.name, 7, 1, false, "", true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("timed run: %d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, m := range sp.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err = runWorkload(sp, w.name, 7, 1, true, spans, true)
			if err != nil {
				t.Fatal(err)
			}
			// The traced pass counts a replay digest mismatch and a trace
			// coverage below 90% as failed operations.
			if !res.Correct {
				t.Fatalf("traced run: %d of %d operations failed", res.Failed, res.Attempted)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("spans file not written: %v", err)
			}
		})
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "events_per_s", Better: "higher", Bound: 0.1}
	tight := func(v float64) [3]float64 { return [3]float64{v * 0.99, v, v * 1.01} }
	for _, tc := range []struct {
		m    specMetric
		a, b [3]float64
		want string
	}{
		{lower, tight(100), tight(105), "within"},
		{lower, tight(100), tight(120), "worse"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(80), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, [3]float64{80, 100, 120}, tight(100), "unresolved"},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
