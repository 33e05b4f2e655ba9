package core

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/race"
	"stinspector/internal/render"
	"stinspector/internal/source"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// shardCounts are the shard settings the equivalence properties must
// hold at: sequential, a fixed mid-size, and whatever this machine has.
func shardCounts() []int {
	out := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		out = append(out, p)
	}
	return out
}

// streamArtifacts serializes everything a StreamResult carries — the
// activity-log variant by variant (case lists included), the DFG, and
// the statistics with floats at full precision — so byte-identity here
// means byte-identity of every downstream artifact.
func streamArtifacts(res *StreamResult) string {
	var b strings.Builder
	l := res.ActivityLog
	fmt.Fprintf(&b, "log traces=%d variants=%d mapped=%d unmapped=%d\n",
		l.NumTraces(), l.NumVariants(), l.MappedEvents(), l.UnmappedEvents())
	for _, v := range l.Variants() {
		fmt.Fprintf(&b, "  %d× %s %v\n", v.Mult, v.Seq, v.Cases)
	}
	b.WriteString(render.RenderText(res.DFG, res.Stats, nil))
	for _, a := range res.Stats.Activities() {
		s := res.Stats.Get(a)
		fmt.Fprintf(&b, "%s events=%d totaldur=%d reldur=%s bytes=%d/%v procrate=%s maxconc=%d\n",
			a, s.Events, int64(s.TotalDur),
			strconv.FormatFloat(s.RelDur, 'g', -1, 64),
			s.Bytes, s.HasBytes,
			strconv.FormatFloat(s.ProcRate, 'g', -1, 64),
			s.MaxConc)
	}
	fmt.Fprintf(&b, "cases=%d events=%d\n", res.Cases, res.Events)
	return b.String()
}

// TestAnalyzeStreamParallelEquivalence is the tentpole law at the core
// layer: every shard count produces byte-identical artifacts to the
// sequential fold.
func TestAnalyzeStreamParallelEquivalence(t *testing.T) {
	el := synth.Log("shard", 53, 120, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	seq, err := AnalyzeStreamParallel(source.FromLog(el), m, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	want := streamArtifacts(seq)
	for _, shards := range shardCounts() {
		res, err := AnalyzeStreamParallel(source.FromLog(el), m, shards, true)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := streamArtifacts(res); got != want {
			t.Errorf("shards=%d: artifacts differ from sequential fold", shards)
		}
	}
}

// errSource fails at fixed positions, for the error-policy checks.
type errSource struct {
	cases []*trace.Case
	fail  map[int]bool
	next  int
}

func (s *errSource) Next() (*trace.Case, error) {
	if s.next >= len(s.cases) {
		return nil, io.EOF
	}
	i := s.next
	s.next++
	if s.fail[i] {
		return nil, fmt.Errorf("case %d unreadable", i)
	}
	return s.cases[i], nil
}

func (s *errSource) Close() error { return nil }

// TestAnalyzeStreamParallelErrorPolicies: joinErrors skips failures,
// folds the rest and joins every failure; fail-fast aborts on the
// earliest one — at every shard count.
func TestAnalyzeStreamParallelErrorPolicies(t *testing.T) {
	el := synth.Log("err", 12, 20, 3)
	for _, shards := range shardCounts() {
		src := &errSource{cases: el.Cases(), fail: map[int]bool{3: true, 9: true}}
		res, err := AnalyzeStreamParallel(src, pm.CallTopDirs{Depth: 2}, shards, true)
		if err == nil || !strings.Contains(err.Error(), "case 3 unreadable") || !strings.Contains(err.Error(), "case 9 unreadable") {
			t.Errorf("shards=%d: joined error = %v", shards, err)
		}
		if res != nil {
			t.Errorf("shards=%d: result despite errors", shards)
		}
		src = &errSource{cases: el.Cases(), fail: map[int]bool{5: true}}
		_, err = AnalyzeStreamParallel(src, pm.CallTopDirs{Depth: 2}, shards, false)
		if err == nil || !strings.Contains(err.Error(), "case 5 unreadable") {
			t.Errorf("shards=%d: fail-fast error = %v", shards, err)
		}
	}
}

// TestAnalyzeParallelSpeedup encodes the analysis layer's performance
// goal, the analysis counterpart of TestReadDirParallelSpeedup: on a
// machine with at least 4 cores, the sharded fold over an
// already-materialized log (no parsing in the loop) must be at least 2x
// faster than the sequential fold. Fewer cores, or -short, skip.
func TestAnalyzeParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the speedup gate, have %d", runtime.NumCPU())
	}
	el := synth.Log("speed", 96, 2500, 7)
	m := pm.CallTopDirs{Depth: 2}
	run := func(shards int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 5; i++ {
			src := source.FromLog(el)
			start := time.Now()
			res, err := AnalyzeStreamParallel(src, m, shards, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != el.NumEvents() {
				t.Fatalf("lost events: got %d, want %d", res.Events, el.NumEvents())
			}
			if d := time.Since(start); d < best {
				best = d
			}
			src.Close()
		}
		return best
	}
	run(0) // warm up
	checkAnalyzeAllocBudget(t, el, m)
	seq := run(1)
	par := run(0)
	speedup := seq.Seconds() / par.Seconds()
	t.Logf("sequential fold %v, sharded fold %v (%d cores): %.2fx", seq, par, runtime.NumCPU(), speedup)
	if speedup < 2 {
		t.Errorf("sharded analysis speedup %.2fx, want >= 2x on %d cores", speedup, runtime.NumCPU())
	}
}

// TestAnalyzeAllocBudget runs the allocation gate standalone, so
// single-core machines (where the speedup harness skips) still enforce
// it, over a smaller log to stay cheap.
func TestAnalyzeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	el := synth.Log("allocb", 48, 2000, 11)
	m := pm.CallTopDirs{Depth: 2}
	// Warm: table growth, pool population.
	src := source.FromLog(el)
	if _, err := AnalyzeStreamParallel(src, m, 1, true); err != nil {
		t.Fatal(err)
	}
	src.Close()
	checkAnalyzeAllocBudget(t, el, m)
}

// checkAnalyzeAllocBudget is the analysis-side allocation-regression
// gate of the symbol-interning refactor, run inside the speedup
// harness so both sit over the same 240k-event log: the sequential
// fold must stay under a fixed allocations-per-event ceiling. The
// string-keyed builders sat near 2 allocs/event (makeActivity concat,
// variant keys, the interface-boxing max-concurrency heap). The
// symbolized fold measures 0.092 on TestAnalyzeAllocBudget's 96k-event
// log (about 8.8k allocations per run), so the 0.25 ceiling sits about
// 2.7x above today's cost and still catches any per-event allocation
// sneaking back into the hot loop. Nearly all of those allocations are
// a fixed per-run cost (builders, tables, shard plumbing), not
// per-event: the same fold over 7.2k events reads about 0.63
// allocs/event. Skipped under -race (instrumented allocator).
func checkAnalyzeAllocBudget(t *testing.T, el *trace.EventLog, m pm.Mapping) {
	t.Helper()
	checkAnalyzeAllocBudgetCeiling(t, el, m, 0.25)
}

// checkAnalyzeAllocBudgetCeiling is the gate with an explicit ceiling,
// for inputs whose inherent per-run cost differs from the friendly
// shape (an unbounded path vocabulary pays first-sight interning into
// the run's own symbol table on every run, by design).
func checkAnalyzeAllocBudgetCeiling(t *testing.T, el *trace.EventLog, m pm.Mapping, ceiling float64) {
	t.Helper()
	if race.Enabled {
		t.Log("allocation budget skipped under -race")
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	src := source.FromLog(el)
	res, err := AnalyzeStreamParallel(src, m, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	runtime.ReadMemStats(&m1)
	if res.Events != el.NumEvents() {
		t.Fatalf("lost events: got %d, want %d", res.Events, el.NumEvents())
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(el.NumEvents())
	t.Logf("sequential analysis fold: %d allocs for %d events = %.4f allocs/event",
		m1.Mallocs-m0.Mallocs, el.NumEvents(), perEvent)
	if perEvent > ceiling {
		t.Errorf("analysis allocs/event = %.4f, budget %.2f — the zero-alloc fold regressed", perEvent, ceiling)
	}
}

// TestAnalyzeStreamMatchesInMemoryStats is a spot check that the
// streaming fold and the Inspector's fold over the materialized log
// (mapped up front, spans reserved at exact size) agree (the root-level
// equivalence suite covers this exhaustively, and the naive Eq. 12–16
// reference in internal/stats checks both against the equations; this
// keeps the property visible next to the implementation).
func TestAnalyzeStreamMatchesInMemoryStats(t *testing.T) {
	el := synth.Log("mem", 9, 50, 5)
	m := pm.CallTopDirs{Depth: 2}
	res, err := AnalyzeStreamParallel(source.FromLog(el), m, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := FromEventLog(el).WithMapping(m).Stats()
	for _, a := range want.Activities() {
		ws, gs := want.Get(a), res.Stats.Get(a)
		if gs == nil || ws.ProcRate != gs.ProcRate || ws.RelDur != gs.RelDur || ws.MaxConc != gs.MaxConc {
			t.Errorf("activity %s: stream %+v, in-memory %+v", a, gs, ws)
		}
	}
}
