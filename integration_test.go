package stinspector

// End-to-end integration tests: simulate workloads, write strace text,
// consolidate archives, re-ingest through every entry point, and verify
// that all paths produce identical syntheses. These are the
// cross-module guarantees a downstream user relies on: no matter how an
// event-log reaches the library, the DFG is the same.

import (
	"path/filepath"
	"testing"

	"stinspector/internal/iorsim"
	"stinspector/internal/lssim"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
	"stinspector/internal/workloads"
)

// TestIngestionPathsAgree: direct event-log, strace-text round trip and
// archive round trip must yield identical DFGs and statistics.
func TestIngestionPathsAgree(t *testing.T) {
	res, err := iorsim.Run(iorsim.Config{
		CID: "it", Ranks: 8, Hosts: 2, TransferSize: 1 << 20, BlockSize: 4 << 20,
		Segments: 2, Write: true, Read: true, Fsync: true, ReorderTasks: true,
		Preamble: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct := FromEventLog(res.Log)

	// Path 1: strace text.
	dir := t.TempDir()
	if err := strace.WriteDir(dir, res.Log); err != nil {
		t.Fatal(err)
	}
	viaText, err := FromStraceDir(dir, ParseOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}

	// Path 2: archive.
	sta := filepath.Join(t.TempDir(), "it.sta")
	if err := WriteArchive(sta, res.Log); err != nil {
		t.Fatal(err)
	}
	viaArchive, err := FromArchive(sta, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Path 3: strace text → archive → load.
	sta2 := filepath.Join(t.TempDir(), "it2.sta")
	if err := WriteArchive(sta2, viaText.EventLog()); err != nil {
		t.Fatal(err)
	}
	viaBoth, err := FromArchive(sta2, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	want := direct.DFG()
	for name, in := range map[string]*Inspector{
		"strace-text":    viaText,
		"archive":        viaArchive,
		"strace+archive": viaBoth,
	} {
		if got := in.DFG(); !got.Equal(want) {
			t.Errorf("%s ingestion produced a different DFG", name)
		}
		if got, wantN := in.EventLog().NumEvents(), res.Log.NumEvents(); got != wantN {
			t.Errorf("%s ingestion holds %d events, want %d", name, got, wantN)
		}
	}

	// Statistics agree across paths too (identical rd and byte values).
	wantStats := direct.Stats()
	gotStats := viaBoth.Stats()
	for _, a := range wantStats.Activities() {
		w, g := wantStats.Get(a), gotStats.Get(a)
		if g == nil || w.Bytes != g.Bytes || w.Events != g.Events || w.RelDur != g.RelDur {
			t.Errorf("stats for %s differ across ingestion paths", a)
		}
	}
}

// TestWorkloadToDFGPipeline: every workload generator flows through the
// public pipeline.
func TestWorkloadToDFGPipeline(t *testing.T) {
	ck, err := workloads.Checkpoint(workloads.CheckpointConfig{Shared: true, Ranks: 4, Rounds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := workloads.MetadataStorm(workloads.MetadataStormConfig{Ranks: 4, FilesPerRank: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sl, err := workloads.SharedLog(workloads.SharedLogConfig{Ranks: 4, Records: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, log := range map[string]*EventLog{
		"checkpoint": ck.Log, "metadata-storm": ms.Log, "shared-log": sl.Log,
	} {
		in := FromEventLog(log)
		g := in.DFG()
		if g.NumNodes() < 3 {
			t.Errorf("%s: DFG too small: %s", name, g)
		}
		if err := log.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Flow conservation sanity on real workloads.
		for _, a := range g.Nodes() {
			if a.IsVirtual() {
				continue
			}
			if g.InWeight(a) != g.NodeCount(a) || g.OutWeight(a) != g.NodeCount(a) {
				t.Errorf("%s: flow conservation broken at %s", name, a)
			}
		}
	}
}

// TestPIDRegroupingPipeline: the Section IV SMT/OpenMP case redefinition
// through the public inspector.
func TestPIDRegroupingPipeline(t *testing.T) {
	// Build a log where one rid hosts two pids.
	id := trace.CaseID{CID: "omp", Host: "h", RID: 5}
	c := trace.NewCase(id, []trace.Event{
		{PID: 50, Call: "read", Start: 1e6, Dur: 1000, FP: "/a", Size: 10},
		{PID: 51, Call: "read", Start: 2e6, Dur: 1000, FP: "/a", Size: 10},
		{PID: 50, Call: "write", Start: 3e6, Dur: 1000, FP: "/b", Size: 10},
	})
	in := FromEventLog(trace.MustNewEventLog(c))
	if in.EventLog().NumCases() != 1 {
		t.Fatalf("cases = %d", in.EventLog().NumCases())
	}
	re := in.RegroupByPID()
	if re.EventLog().NumCases() != 2 {
		t.Fatalf("regrouped cases = %d, want 2", re.EventLog().NumCases())
	}
	// The DFG changes: with rid-cases the trace is read,read,write; with
	// pid-cases the traces are (read,write) and (read).
	g := re.DFG()
	if g.EdgeCount(Edge{From: "read:/a", To: "read:/a"}) != 0 {
		t.Errorf("pid-grouped DFG kept the cross-thread read→read relation")
	}
	if g.EdgeCount(Edge{From: "read:/a", To: "write:/b"}) != 1 {
		t.Errorf("pid-grouped DFG lost the intra-thread relation")
	}
}

// TestLsDemoEndToEnd: the complete paper example through strace text and
// the paper's f̂, asserting the headline Figure 3 claim once more at the
// integration level.
func TestLsDemoEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, _, cx := lssim.Both(lssim.Config{})
	if err := strace.WriteDir(dir, cx); err != nil {
		t.Fatal(err)
	}
	in, err := FromStraceDir(dir, ParseOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	full, part := in.PartitionByCID("a")
	green, red, _ := part.CountNodes()
	if green != 0 || red != 4 {
		t.Errorf("partition = %d green / %d red nodes, want 0/4", green, red)
	}
	if !full.HasEdge(Edge{From: Start, To: "read:/usr/lib"}) {
		t.Errorf("start edge missing")
	}
}
