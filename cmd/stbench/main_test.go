package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector/internal/cliutil"
)

// The ls-scale figures run in microseconds; exercise the real dispatch.
func TestRunSingleFigure(t *testing.T) {
	for _, fig := range []string{"fig2", "fig3", "fig4", "fig5"} {
		if err := run([]string{"-fig", fig, "-checks-only"}); err != nil {
			t.Errorf("run(%s): %v", fig, err)
		}
	}
}

// The IOR figures at reduced scale keep the test fast while exercising
// the whole path.
func TestRunIORFigureReduced(t *testing.T) {
	err := run([]string{"-fig", "fig8b", "-checks-only",
		"-ranks", "16", "-hosts", "2", "-segments", "2", "-transfers", "4", "-seed", "5"})
	if err != nil {
		t.Errorf("run(fig8b reduced): %v", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "fig99"}); err == nil {
		t.Errorf("unknown figure accepted")
	}
}

// TestRunIngestBench drives the full -ingest mode at tiny scale: both
// the ingest section (sequential / parallel / streaming) and the
// analysis section (sequential vs sharded fold, with the built-in
// artifact-divergence check) must run green.
func TestRunIngestBench(t *testing.T) {
	err := run([]string{"-ingest", "6", "-events", "40", "-j", "2", "-window", "4", "-ashards", "3"})
	if err != nil {
		t.Errorf("run(-ingest): %v", err)
	}
}

// TestRunIngestBenchCheckpoint: -checkpoint adds the durable-fold stage
// to the report, leaves a readable snapshot behind, and -resume over
// the completed snapshot is a clean no-op run.
func TestRunIngestBenchCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	err := run([]string{"-ingest", "6", "-events", "40", "-j", "2", "-ashards", "2",
		"-checkpoint", dir, "-checkpoint-every", "2", "-json", path})
	if err != nil {
		t.Fatalf("run(-ingest -checkpoint): %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stages []benchStage
	if err := json.Unmarshal(b, &stages); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stages {
		if s.Stage == "analysis_checkpointed" {
			found = true
		}
	}
	if !found {
		t.Error("analysis_checkpointed stage missing from JSON report")
	}
	if fi, err := os.Stat(filepath.Join(dir, "checkpoint.sts")); err != nil || fi.Size() == 0 {
		t.Errorf("checkpoint snapshot missing or empty (err %v)", err)
	}
	err = run([]string{"-ingest", "6", "-events", "40", "-j", "2", "-ashards", "2",
		"-checkpoint", dir, "-checkpoint-every", "2", "-resume"})
	if err != nil {
		t.Errorf("run(-ingest -resume): %v", err)
	}
}

// TestRunIngestBenchJSON: -json writes the machine-readable stage
// table with the documented schema.
func TestRunIngestBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	err := run([]string{"-ingest", "6", "-events", "40", "-j", "2", "-ashards", "2", "-json", path})
	if err != nil {
		t.Fatalf("run(-ingest -json): %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var stages []benchStage
	if err := json.Unmarshal(b, &stages); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(stages) != 6 {
		t.Fatalf("got %d stages, want 6", len(stages))
	}
	names := map[string]bool{}
	for _, s := range stages {
		names[s.Stage] = true
		if s.WallNS <= 0 || s.EventsPerS <= 0 {
			t.Errorf("stage %s has non-positive metrics: %+v", s.Stage, s)
		}
		if s.AllocsPerEvent < 0 {
			t.Errorf("stage %s has negative allocs_per_event", s.Stage)
		}
		// MB/s is meaningful only for stages that consume encoded bytes
		// (the trace directory or an archive file); analysis folds
		// report 0 rather than a fabricated throughput.
		readsBytes := strings.HasPrefix(s.Stage, "ingest_") || strings.HasPrefix(s.Stage, "reingest_")
		if readsBytes && s.MBPerS <= 0 {
			t.Errorf("ingest stage %s has non-positive mb_per_s", s.Stage)
		}
		if !readsBytes && s.MBPerS != 0 {
			t.Errorf("analysis stage %s reports mb_per_s %v, want 0", s.Stage, s.MBPerS)
		}
	}
	for _, want := range []string{"ingest_sequential", "ingest_parallel_j2",
		"reingest_sta2_j2_w4",
		"analysis_sequential", "analysis_sharded_s2"} {
		if !names[want] {
			t.Errorf("missing stage %q in %v", want, names)
		}
	}
}

// TestRunLiveBench drives the standalone -live mode: a paced replay
// through the follow tailer and the bounded live source per
// backpressure policy, with the live metrics in the JSON table.
func TestRunLiveBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_live.json")
	err := run([]string{"-live", "4", "-events", "40", "-rate", "40000", "-ashards", "2", "-budget", "8", "-json", path})
	if err != nil {
		t.Fatalf("run(-live): %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stages []benchStage
	if err := json.Unmarshal(b, &stages); err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2 (one per policy)", len(stages))
	}
	names := map[string]bool{}
	for _, s := range stages {
		names[s.Stage] = true
		if s.WallNS <= 0 || s.EventsPerS <= 0 || s.MBPerS <= 0 {
			t.Errorf("stage %s has non-positive throughput: %+v", s.Stage, s)
		}
		if s.LagMeanNS <= 0 || s.LagMaxNS < s.LagMeanNS {
			t.Errorf("stage %s has implausible lag: mean %d, max %d", s.Stage, s.LagMeanNS, s.LagMaxNS)
		}
		if s.PeakResident < 1 {
			t.Errorf("stage %s saw no resident cases", s.Stage)
		}
	}
	for _, want := range []string{"live_follow_block", "live_follow_shed_oldest"} {
		if !names[want] {
			t.Errorf("missing stage %q in %v", want, names)
		}
	}
}

// TestRunIngestWithLiveStages: -live composes with -ingest into one
// stage table, so a single BENCH_ingest.json covers batch and live
// ingestion.
func TestRunIngestWithLiveStages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	err := run([]string{"-ingest", "6", "-events", "40", "-j", "2", "-ashards", "2",
		"-live", "4", "-rate", "40000", "-json", path})
	if err != nil {
		t.Fatalf("run(-ingest -live): %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stages []benchStage
	if err := json.Unmarshal(b, &stages); err != nil {
		t.Fatal(err)
	}
	if len(stages) != 8 {
		t.Fatalf("got %d stages, want 8 (6 ingest + 2 live)", len(stages))
	}
	if stages[6].Stage != "live_follow_block" || stages[7].Stage != "live_follow_shed_oldest" {
		t.Errorf("live stages not appended: %s, %s", stages[6].Stage, stages[7].Stage)
	}
}

// TestRunJSONRequiresIngest: -json outside -ingest mode is a usage
// error.
func TestRunJSONRequiresIngest(t *testing.T) {
	if err := run([]string{"-fig", "fig2a", "-json", "x.json"}); err == nil {
		t.Error("run(-fig -json) succeeded, want usage error")
	}
}

// TestRunIngestBenchScopedSyms drives -ingest with per-pass scoped
// symbol tables: both sections must still run green (the scoped path
// is byte-identical, so the built-in artifact checks apply unchanged).
func TestRunIngestBenchScopedSyms(t *testing.T) {
	err := run([]string{"-ingest", "6", "-events", "40", "-j", "2", "-window", "4", "-ashards", "2", "-scoped-syms"})
	if err != nil {
		t.Errorf("run(-ingest -scoped-syms): %v", err)
	}
}

// TestRunUsageExitCodes is the table-driven flag-validation suite:
// contradictory modes and invalid worker/window counts — with or
// without -scoped-syms — are usage errors (exit 2); a failed benchmark
// or unknown figure is a runtime error (exit 1).
func TestRunUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"ok figure", []string{"-fig", "fig2", "-checks-only"}, 0},
		{"help request", []string{"-h"}, 0},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"json without ingest", []string{"-fig", "fig2", "-json", "x.json"}, 2},
		{"scoped without ingest", []string{"-scoped-syms"}, 2},
		{"scoped with negative -j", []string{"-ingest", "4", "-scoped-syms", "-j", "-1"}, 2},
		{"scoped with negative -window", []string{"-ingest", "4", "-scoped-syms", "-window", "-2"}, 2},
		{"scoped with negative -ashards", []string{"-ingest", "4", "-scoped-syms", "-ashards", "-1"}, 2},
		{"negative -ingest", []string{"-ingest", "-3"}, 2},
		{"negative -events", []string{"-ingest", "4", "-events", "-1"}, 2},
		{"zero -events in ingest mode", []string{"-ingest", "4", "-events", "0"}, 2},
		{"unknown figure", []string{"-fig", "fig99"}, 1},
		{"checkpoint without ingest", []string{"-checkpoint", "d"}, 2},
		{"checkpoint-every without checkpoint", []string{"-ingest", "4", "-checkpoint-every", "2"}, 2},
		{"resume without checkpoint", []string{"-ingest", "4", "-resume"}, 2},
		{"negative checkpoint-every", []string{"-ingest", "4", "-checkpoint", "d", "-checkpoint-every", "-1"}, 2},
		{"negative -live", []string{"-live", "-2"}, 2},
		{"zero -rate", []string{"-live", "4", "-rate", "0"}, 2},
		{"negative -rate", []string{"-live", "4", "-rate", "-100"}, 2},
		{"negative -budget", []string{"-live", "4", "-budget", "-1"}, 2},
		{"budget without live", []string{"-ingest", "4", "-budget", "8"}, 2},
		{"live with matrix", []string{"-matrix", "-live", "4"}, 2},
		{"zero -events in live mode", []string{"-live", "4", "-events", "0"}, 2},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if got := cliutil.ExitCode(err); got != tc.exit {
			t.Errorf("%s: run(%v) -> exit %d (err %v), want %d", tc.name, tc.args, got, err, tc.exit)
		}
	}
}
