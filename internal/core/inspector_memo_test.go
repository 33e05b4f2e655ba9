package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"stinspector/internal/dfg"
	"stinspector/internal/iorsim"
	"stinspector/internal/lssim"
	"stinspector/internal/pm"
	"stinspector/internal/race"
	"stinspector/internal/render"
	"stinspector/internal/trace"
)

// countingMapping is f̂ behind a per-event call counter. Unlike
// pm.CallTopDirs it does not declare itself a pure function of (call,
// path), so a fold consults it once for every event.
func countingMapping(calls *atomic.Int64) pm.Mapping {
	return pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
		calls.Add(1)
		return pm.CallTopDirs{Depth: 2}.Map(e)
	})
}

// TestInspectorMemo: repeated queries return the very same artifacts,
// and all of them come from one fold — after the first query the
// mapping is never consulted again.
func TestInspectorMemo(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	var calls atomic.Int64
	in := FromEventLog(cx).WithMapping(countingMapping(&calls))
	g := in.DFG()
	if n := calls.Load(); n != int64(cx.NumEvents()) {
		t.Fatalf("first query mapped %d events, want %d", n, cx.NumEvents())
	}
	if in.DFG() != g {
		t.Error("DFG() returned a different graph")
	}
	if in.Stats() != in.Stats() {
		t.Error("Stats() returned different statistics")
	}
	if in.ActivityLog() != in.ActivityLog() {
		t.Error("ActivityLog() returned a different log")
	}
	if in.Behavior() != in.Behavior() {
		t.Error("Behavior() returned a different profile")
	}
	if full, _ := in.PartitionByCID("a"); full != g {
		t.Error("PartitionByCID classified a graph other than DFG()")
	}
	render.RenderDOT(in.DFG(), in.Stats(), render.StatisticsColoring{Stats: in.Stats()})
	dfg.NewFootprint(in.DFG())
	if n := calls.Load(); n != int64(cx.NumEvents()) {
		t.Errorf("queries mapped %d events in all, want one fold of %d", n, cx.NumEvents())
	}
}

// TestInspectorDetailMemo: the timeline queries, however many and for
// whichever activities, all read one detail fold — the mapping is
// consulted once per event for it, beside the once of the DFG fold.
func TestInspectorDetailMemo(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	var calls atomic.Int64
	in := FromEventLog(cx).WithMapping(countingMapping(&calls))
	for _, a := range in.Stats().Activities() {
		in.Timeline(a)
		in.Timeline(a)
	}
	if n, want := calls.Load(), 2*int64(cx.NumEvents()); n != want {
		t.Errorf("detail queries mapped %d events in all, want one fold and one detail fold of %d", n, cx.NumEvents())
	}
}

// TestInspectorDerivedFoldsAfresh: a derived inspector does not share
// its parent's result, even when the parent has already folded and the
// derivation keeps the log or the mapping as it is.
func TestInspectorDerivedFoldsAfresh(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	var calls atomic.Int64
	m := countingMapping(&calls)
	parent := FromEventLog(cx).WithMapping(m)
	g, st := parent.DFG(), parent.Stats()
	for name, d := range map[string]*Inspector{
		"WithMapping": parent.WithMapping(m),
		"FilterPath":  parent.FilterPath(""),
	} {
		before := calls.Load()
		if d.DFG() == g || d.Stats() == st {
			t.Errorf("%s: derived inspector shares the parent's artifacts", name)
		}
		if n := calls.Load() - before; n != int64(d.EventLog().NumEvents()) {
			t.Errorf("%s: derived inspector mapped %d events, want its own fold of %d", name, n, d.EventLog().NumEvents())
		}
		// Each of these derivations keeps the demo's graph as it is.
		if !d.DFG().Equal(g) {
			t.Errorf("%s: derived DFG differs from the parent's", name)
		}
	}
	if sub := parent.FilterPath("/usr/lib"); sub.DFG().Equal(g) {
		t.Error("FilterPath(/usr/lib) kept the parent's DFG")
	}
}

// inspectorRenderings renders every artifact of in into one string.
func inspectorRenderings(in *Inspector) string {
	full, part := in.PartitionByCID("a")
	return render.RenderText(in.DFG(), in.Stats(), nil) +
		render.RenderDOT(in.DFG(), in.Stats(), render.StatisticsColoring{Stats: in.Stats()}) +
		render.RenderText(full, in.Stats(), part) +
		in.ActivityLog().String() +
		in.Behavior().RenderText() +
		dfg.NewFootprint(in.DFG()).String() +
		render.RenderTimeline(in.Timeline("read:/usr/lib"))
}

// TestInspectorConcurrentQueries: goroutines querying one fresh
// Inspector at once all see the artifacts a serial query of a second
// inspector over the same log renders (run it under -race).
func TestInspectorConcurrentQueries(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	want := inspectorRenderings(FromEventLog(cx))
	in := FromEventLog(cx)
	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = inspectorRenderings(in)
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s != want {
			t.Errorf("goroutine %d rendered differently from a serial query", i)
		}
	}
}

// iorLog is the IOR-shaped log of the statistics allocation gate: a
// shared-file and a file-per-process run of 16 ranks each, write and
// read phases and the strace preamble, 36,783 events.
func iorLog(t *testing.T) *trace.EventLog {
	t.Helper()
	var logs []*trace.EventLog
	for i, cid := range []string{"ssf", "fpp"} {
		res, err := iorsim.Run(iorsim.Config{
			CID: cid, Ranks: 16, Hosts: 2,
			TransferSize: 256 << 10, BlockSize: 16 << 20, Segments: 8,
			Write: true, Read: true, FilePerProc: cid == "fpp", Preamble: true,
			Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, res.Log)
	}
	return trace.MustUnion(logs...)
}

// TestInspectorBytesPerEvent is the allocation gate on the Inspector's
// one fold: over the IOR-shaped log, the first artifact query builds
// the activity-log, the DFG, the statistics and the behavior profile
// in at most 32 B/event. The symbols of the whole log take 4 B/event
// and the exactly sized spans 16; separate passes per artifact, or
// spans grown by append, do not fit. Skipped under -race (instrumented
// allocator).
func TestInspectorBytesPerEvent(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate skipped under -race")
	}
	const budget = 32.0
	el := iorLog(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	FromEventLog(el).DFG() // warm up
	in := FromEventLog(el)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in.DFG()
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(el.NumEvents())
	t.Logf("the first query allocated %.1f B/event over %d events", perEvent, el.NumEvents())
	if perEvent > budget {
		t.Errorf("the first query allocated %.1f B/event, over the %.0f B budget", perEvent, budget)
	}
}
