package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/fstest"

	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/lssim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// These tests regenerate the golden artifacts through the *streaming*
// pipeline — AnalyzeStreamParallel over case sources instead of materialized
// event-logs — and compare against the same golden files the in-memory
// tests pin. Any byte of divergence between the two construction paths
// fails here.

// goldenBytes loads a golden file (the -update flag is owned by the
// in-memory golden tests; streaming must reproduce, never rewrite).
func goldenBytes(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden file %s (run the in-memory golden tests with -update first): %v", name, err)
	}
	return string(b)
}

// streamPartition rebuilds the full/green/red DFGs and the statistics
// of the fig3d partition purely from streams over cx.
func streamPartition(t *testing.T, cx *trace.EventLog) (*dfg.Graph, *dfg.Partition, *core.StreamResult) {
	t.Helper()
	m := pm.CallTopDirs{Depth: 2}
	full, err := core.AnalyzeStreamParallel(source.FromLog(cx), m, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	green, err := core.AnalyzeStreamParallel(
		source.FilterCases(source.FromLog(cx), func(c *trace.Case) bool { return c.ID.CID == "a" }), m, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	red, err := core.AnalyzeStreamParallel(
		source.FilterCases(source.FromLog(cx), func(c *trace.Case) bool { return c.ID.CID != "a" }), m, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return full.DFG, dfg.Classify(full.DFG, green.DFG, red.DFG), full
}

func TestGoldenFig3dDOTStreaming(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	g, part, res := streamPartition(t, cx)
	dot := render.RenderDOT(g, res.Stats, render.PartitionColoring{Partition: part})
	if want := goldenBytes(t, "fig3d.dot"); dot != want {
		t.Errorf("streaming fig3d.dot differs from golden.\n--- streaming ---\n%s\n--- golden ---\n%s", dot, want)
	}
}

func TestGoldenFig3dTextStreaming(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	g, part, res := streamPartition(t, cx)
	txt := render.RenderText(g, res.Stats, part)
	if want := goldenBytes(t, "fig3d.txt"); txt != want {
		t.Errorf("streaming fig3d.txt differs from golden.\n--- streaming ---\n%s\n--- golden ---\n%s", txt, want)
	}
	// The paper's headline values must survive the streaming path too.
	for _, v := range []string{"Load:0.22 (14.98 KB)", "Load:0.27 (2.87 KB)", "[red]", "DR: 2x"} {
		if !strings.Contains(txt, v) {
			t.Errorf("streaming fig3d.txt missing %q", v)
		}
	}
}

// TestGoldenFig3dShardedAnalysis re-derives the fig3d artifacts through
// AnalyzeStreamParallel at several shard counts: the golden bytes must
// be reproduced exactly whatever the sharding — the merge layer's
// "shard count is never observable" law pinned against real artifacts.
func TestGoldenFig3dShardedAnalysis(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	m := pm.CallTopDirs{Depth: 2}
	wantDot := goldenBytes(t, "fig3d.dot")
	wantTxt := goldenBytes(t, "fig3d.txt")
	for _, shards := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		analyze := func(keep func(*trace.Case) bool) *core.StreamResult {
			src := source.FromLog(cx)
			if keep != nil {
				src = source.FilterCases(src, keep)
			}
			defer src.Close()
			res, err := core.AnalyzeStreamParallel(src, m, shards, false)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		full := analyze(nil)
		green := analyze(func(c *trace.Case) bool { return c.ID.CID == "a" })
		red := analyze(func(c *trace.Case) bool { return c.ID.CID != "a" })
		part := dfg.Classify(full.DFG, green.DFG, red.DFG)
		if dot := render.RenderDOT(full.DFG, full.Stats, render.PartitionColoring{Partition: part}); dot != wantDot {
			t.Errorf("shards=%d: fig3d.dot differs from golden", shards)
		}
		if txt := render.RenderText(full.DFG, full.Stats, part); txt != wantTxt {
			t.Errorf("shards=%d: fig3d.txt differs from golden", shards)
		}
	}
}

func TestGoldenFig5TimelineStreaming(t *testing.T) {
	_, cb, _ := lssim.Both(lssim.Config{})
	m := pm.CallTopDirs{Depth: 2}
	const act = pm.Activity("read:/usr/lib")
	var intervals []trace.Interval
	src := source.FromLog(cb)
	defer src.Close()
	err := source.Walk(src, false, func(c *trace.Case) error {
		for _, e := range c.Events {
			if got, ok := m.Map(e); ok && got == act {
				intervals = append(intervals, trace.Interval{Start: e.Start, End: e.Start + e.Dur, Case: c.ID})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(intervals, func(i, j int) bool {
		if intervals[i].Start != intervals[j].Start {
			return intervals[i].Start < intervals[j].Start
		}
		return intervals[i].Case.Less(intervals[j].Case)
	})
	got := render.RenderTimeline(intervals)
	if want := goldenBytes(t, "fig5.txt"); got != want {
		t.Errorf("streaming fig5.txt differs from golden.\n--- streaming ---\n%s\n--- golden ---\n%s", got, want)
	}
}

// TestGoldenFig2RoundTripStreaming is the streaming counterpart of the
// fig2 writer/parser round trip: the ls cases rendered to trace files
// and streamed back must reproduce every event exactly.
func TestGoldenFig2RoundTripStreaming(t *testing.T) {
	ca, _, _ := lssim.Both(lssim.Config{})
	fsys := fstest.MapFS{}
	for _, c := range ca.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
	}
	src, err := strace.StreamFS(fsys, ".", strace.Options{Strict: true, Parallelism: 2, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := source.Drain(src, true)
	if err != nil {
		t.Fatal(err)
	}
	want := ca.Cases()
	if got.NumCases() != len(want) {
		t.Fatalf("streamed %d cases, want %d", got.NumCases(), len(want))
	}
	for i, c := range got.Cases() {
		if !reflect.DeepEqual(c.Events, want[i].Events) {
			t.Errorf("case %s: events differ after stream round trip", c.ID)
		}
	}
}
