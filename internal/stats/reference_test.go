package stats_test

// A deliberately naive reference for the Section IV-B statistics
// (Equations 6–16) over a materialized log. It shares no code with the
// Computer: the mapping is applied through its string form, every sum is
// a plain loop (the data rates in math/big), and max-concurrency is
// found by brute force over all pairs of events. The optimized paths
// are checked against it, the Inspector's fold over the materialized
// log, the streaming fold at several shard counts, the checkpointed fold
// and the merge of snapshot files, so a bug that every optimized path
// shares still shows.

import (
	"fmt"
	"math/big"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// naiveActivity collects one activity's events as the equations read
// them.
type naiveActivity struct {
	events   int
	totalDur time.Duration
	bytes    int64
	hasBytes bool
	rateSum  big.Int // Σ ⌊size·10⁹/dur_ns⌋ over events with a size and dur > 0
	rated    int64
	starts   []time.Duration
	ends     []time.Duration
}

// naiveStats computes every activity's statistics of el under m.
func naiveStats(el *trace.EventLog, m pm.Mapping) (map[pm.Activity]stats.ActivityStats, time.Duration) {
	acts := make(map[pm.Activity]*naiveActivity)
	var total time.Duration
	for _, c := range el.Cases() {
		for _, e := range c.Events {
			a, ok := m.Map(e)
			if !ok {
				continue
			}
			na := acts[a]
			if na == nil {
				na = &naiveActivity{}
				acts[a] = na
			}
			// Equations 6–8: event counts and summed durations.
			na.events++
			na.totalDur += e.Dur
			total += e.Dur
			// Equation 9: bytes moved, by the events that carry a size.
			if e.Size >= 0 {
				na.bytes += e.Size
				na.hasBytes = true
				// Equations 11–13: the per-event rate in whole bytes
				// per second, over the events with a positive duration.
				if e.Dur > 0 {
					r := new(big.Int).Mul(big.NewInt(e.Size), big.NewInt(1e9))
					na.rateSum.Add(&na.rateSum, r.Quo(r, big.NewInt(int64(e.Dur))))
					na.rated++
				}
			}
			// Equation 14: the event's interval; an end before the start
			// counts as a zero-duration interval.
			na.starts = append(na.starts, e.Start)
			na.ends = append(na.ends, max(e.Start, e.Start+e.Dur))
		}
	}
	out := make(map[pm.Activity]stats.ActivityStats, len(acts))
	for a, na := range acts {
		st := stats.ActivityStats{
			Activity: a,
			Events:   na.events,
			TotalDur: na.totalDur,
			Bytes:    na.bytes,
			HasBytes: na.hasBytes,
			MaxConc:  bruteMaxConc(na.starts, na.ends),
		}
		if total > 0 {
			st.RelDur = float64(na.totalDur) / float64(total)
		}
		if na.rated > 0 {
			st.ProcRate = rateFloat(&na.rateSum) / float64(na.rated)
		}
		out[a] = st
	}
	return out, total
}

// rateFloat converts the exact rate sum to float64 the way the
// statistics document it, as the high and low 64-bit halves added in
// float64, so that the comparison with the mean is exact.
func rateFloat(sum *big.Int) float64 {
	lo := new(big.Int).And(sum, new(big.Int).SetUint64(^uint64(0)))
	hi := new(big.Int).Rsh(sum, 64)
	return float64(hi.Uint64())*0x1p64 + float64(lo.Uint64())
}

// bruteMaxConc is Equation 16 by brute force, O(k²): a set of events is
// concurrent when every one of them is still running when the last of
// them starts, taking the events in (start, end) order with ties broken
// by index. For each event l, the largest such set ending in l is l and
// every event before it that ends after l starts.
func bruteMaxConc(starts, ends []time.Duration) int {
	before := func(j, l int) bool {
		if starts[j] != starts[l] {
			return starts[j] < starts[l]
		}
		if ends[j] != ends[l] {
			return ends[j] < ends[l]
		}
		return j < l
	}
	best := 0
	for l := range starts {
		n := 1
		for j := range starts {
			if j != l && before(j, l) && ends[j] > starts[l] {
				n++
			}
		}
		best = max(best, n)
	}
	return best
}

// checkAgainstReference compares got with the reference over el and m.
func checkAgainstReference(t *testing.T, name string, got *stats.Stats, el *trace.EventLog, m pm.Mapping) {
	t.Helper()
	want, total := naiveStats(el, m)
	if got.TotalDur != total {
		t.Errorf("%s: total duration %v, reference %v", name, got.TotalDur, total)
	}
	acts := got.Activities()
	if len(acts) != len(want) {
		t.Errorf("%s: %d activities, reference %d", name, len(acts), len(want))
	}
	for _, a := range acts {
		w, ok := want[a]
		if !ok {
			t.Errorf("%s: activity %q not in the reference", name, a)
			continue
		}
		if g := got.Get(a); *g != w {
			t.Errorf("%s: activity %q\n got %+v\nwant %+v", name, a, *g, w)
		}
	}
}

// edgeLog holds the cases the generators do not draw: negative and zero
// durations, equal spans, zero-duration events sharing a start with
// longer ones or with each other, intervals that touch end to start,
// unsized and zero-size events, and a rate whose exact sum overflows
// 64 bits.
func edgeLog() *trace.EventLog {
	ms := time.Millisecond
	ev := func(call string, start, dur time.Duration, size int64) trace.Event {
		return trace.Event{PID: 1, Call: call, FP: "/d/f", Start: start, Dur: dur, Size: size}
	}
	return trace.MustNewEventLog(
		trace.NewCase(trace.CaseID{CID: "e", Host: "h", RID: 0}, []trace.Event{
			ev("read", 0, 4*ms, 100),
			ev("read", 0, 0, 10),
			ev("read", ms, 2*ms, 0),
			ev("read", ms, 2*ms, trace.SizeUnknown),
			ev("write", 2*ms, -ms, 5),
			ev("write", 2*ms, 0, 1<<40),
			ev("write", 3*ms, 1, 1<<40),
			ev("write", 3*ms, 1, 1<<40),
			ev("lseek", 5*ms, ms, trace.SizeUnknown),
		}),
		trace.NewCase(trace.CaseID{CID: "e", Host: "h", RID: 1}, []trace.Event{
			ev("read", ms, 3*ms, 7),
			ev("read", 4*ms, 0, 7),
			ev("write", 3*ms, 1, 1<<40),
			ev("lseek", 5*ms, ms, trace.SizeUnknown),
			ev("lseek", 5*ms, ms, trace.SizeUnknown),
		}),
		trace.NewCase(trace.CaseID{CID: "e", Host: "h", RID: 2}, []trace.Event{
			ev("fsync", 0, ms, trace.SizeUnknown),
			ev("fsync", ms, ms, trace.SizeUnknown),
			ev("fsync", 2*ms, ms, trace.SizeUnknown),
			ev("close", 6*ms, 0, trace.SizeUnknown),
			ev("close", 6*ms, 0, trace.SizeUnknown),
			ev("close", 6*ms, 0, trace.SizeUnknown),
		}),
	)
}

// TestStatsMatchNaiveReference checks the statistics of the Inspector,
// of the streaming fold at 1, 2 and 4 shards, of the checkpointed fold
// and of a merge of two snapshot files over disjoint halves of the log
// against the naive reference over every generator profile and the
// edge-case log, under a total mapping, a file-level one and a partial
// one.
func TestStatsMatchNaiveReference(t *testing.T) {
	logs := map[string]*trace.EventLog{"edges": edgeLog()}
	for i, p := range profiles.All() {
		// 64 cases: at 4 shards, every shard folds one block of
		// 16 cases (the shard block), so the merges run.
		logs[p.Name] = p.Generate("ref", 64, 40, int64(40+i))
	}
	mappings := map[string]pm.Mapping{
		"topdirs:2": pm.CallTopDirs{Depth: 2},
		"file:1":    pm.CallFileName{Keep: 1},
		"read+write": pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
			if e.Call != "read" && e.Call != "write" {
				return "", false
			}
			return pm.CallTopDirs{Depth: 1}.Map(e)
		}),
	}
	names := make([]string, 0, len(logs))
	for n := range logs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, ln := range names {
		el := logs[ln]
		for mn, m := range mappings {
			name := ln + "/" + mn
			checkAgainstReference(t, name+"/inspector", core.FromEventLog(el).WithMapping(m).Stats(), el, m)
			for _, shards := range []int{1, 2, 4} {
				res, err := core.AnalyzeStreamParallel(source.FromLog(el), m, shards, false)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, fmt.Sprintf("%s/shards=%d", name, shards), res.Stats, el, m)
			}
			checkAgainstReference(t, name+"/checkpointed", checkpointedStats(t, el, m), el, m)
			checkAgainstReference(t, name+"/merged-snapshots", mergedSnapshotStats(t, el, m), el, m)
		}
	}
}

// checkpointedStats folds el through core.AnalyzeStreamCheckpointed,
// writing a checkpoint every eighth of the log (every case for the
// small logs), so the statistics come out of several epoch merges.
func checkpointedStats(t *testing.T, el *trace.EventLog, m pm.Mapping) *stats.Stats {
	t.Helper()
	every := max(1, el.NumCases()/8)
	res, err := core.AnalyzeStreamCheckpointed(source.FromLog(el), m, 2, false, core.CheckpointOptions{Dir: t.TempDir(), Every: every})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// mergedSnapshotStats writes one snapshot file for each half of el's
// cases and merges the two with core.MergeSnapshotFiles.
func mergedSnapshotStats(t *testing.T, el *trace.EventLog, m pm.Mapping) *stats.Stats {
	t.Helper()
	cases, dir := el.Cases(), t.TempDir()
	half := len(cases) / 2
	var paths []string
	for i, part := range [][]*trace.Case{cases[:half], cases[half:]} {
		s, err := core.AnalyzeStreamSnapshot(source.FromLog(trace.MustNewEventLog(part...)), m, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("half%d.sts", i))
		if err := snapshot.WriteFile(path, s); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	res, err := core.MergeSnapshotFiles(m, paths...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// TestBruteMaxConc pins the reference's own reading of Equation 16 on
// hand-checked cases.
func TestBruteMaxConc(t *testing.T) {
	for _, tc := range []struct {
		name         string
		starts, ends []time.Duration
		want         int
	}{
		{"empty", nil, nil, 0},
		{"one zero-duration", []time.Duration{5}, []time.Duration{5}, 1},
		{"touching", []time.Duration{0, 5}, []time.Duration{5, 9}, 1},
		{"overlapping", []time.Duration{0, 4}, []time.Duration{5, 9}, 2},
		{"nested", []time.Duration{0, 1, 2}, []time.Duration{9, 8, 3}, 3},
		{"equal spans", []time.Duration{2, 2, 2}, []time.Duration{6, 6, 6}, 3},
		{"zero-duration spans at one start", []time.Duration{2, 2}, []time.Duration{2, 2}, 1},
		{"zero-duration beside a longer one", []time.Duration{2, 2}, []time.Duration{2, 7}, 1},
		{"zero-duration inside a longer one", []time.Duration{0, 2}, []time.Duration{7, 2}, 2},
	} {
		if got := bruteMaxConc(tc.starts, tc.ends); got != tc.want {
			t.Errorf("%s: mc = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// naiveTimeline is t_f(a, C) as a scan of the event-log: every event
// of the activity, case by case, sorted by start and then case.
func naiveTimeline(el *trace.EventLog, m pm.Mapping, a pm.Activity) []trace.Interval {
	var out []trace.Interval
	for _, c := range el.Cases() {
		for _, e := range c.Events {
			if got, ok := m.Map(e); ok && got == a {
				out = append(out, trace.Interval{Start: e.Start, End: e.Start + e.Dur, Case: c.ID})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Case.Less(out[j].Case)
	})
	return out
}

// naivePerCase is the straggler table as a scan of the event-log.
func naivePerCase(el *trace.EventLog, m pm.Mapping, a pm.Activity) []stats.CaseSummary {
	var out []stats.CaseSummary
	for _, c := range el.Cases() {
		cs := stats.CaseSummary{Case: c.ID}
		for _, e := range c.Events {
			if got, ok := m.Map(e); !ok || (a != "" && got != a) {
				continue
			}
			cs.Events++
			cs.TotalDur += e.Dur
			if e.Size >= 0 {
				cs.Bytes += e.Size
			}
		}
		if cs.Events > 0 {
			out = append(out, cs)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TotalDur != out[j].TotalDur {
			return out[i].TotalDur > out[j].TotalDur
		}
		return out[i].Case.Less(out[j].Case)
	})
	return out
}

// TestDetailMatchesNaiveScans checks the detail fold's timeline,
// duration distribution and straggler table of every activity against
// scans of the event-log, over every generator profile and the
// edge-case log (equal starts within a case, negative and zero
// durations), under a total and a partial mapping.
func TestDetailMatchesNaiveScans(t *testing.T) {
	logs := []*trace.EventLog{edgeLog()}
	for i, p := range profiles.All() {
		logs = append(logs, p.Generate("ref", 12, 40, int64(40+i)))
	}
	mappings := []pm.Mapping{
		pm.CallTopDirs{Depth: 2},
		pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
			if e.Call != "read" && e.Call != "write" {
				return "", false
			}
			return pm.CallTopDirs{Depth: 1}.Map(e)
		}),
	}
	for li, el := range logs {
		for mi, m := range mappings {
			d := stats.NewDetail(m)
			for _, c := range el.Cases() {
				d.Add(c)
			}
			acts := []pm.Activity{"", "no:such"}
			for _, c := range el.Cases() {
				for _, e := range c.Events {
					if a, ok := m.Map(e); ok && !slices.Contains(acts, a) {
						acts = append(acts, a)
					}
				}
			}
			for _, a := range acts {
				name := fmt.Sprintf("log %d/mapping %d/%q", li, mi, a)
				if got, want := d.Timeline(a), naiveTimeline(el, m, a); !slices.Equal(got, want) {
					t.Errorf("%s: timeline = %v, want %v", name, got, want)
				}
				if got, want := d.PerCase(a), naivePerCase(el, m, a); !slices.Equal(got, want) {
					t.Errorf("%s: per case = %v, want %v", name, got, want)
				}
				var durs []time.Duration
				for _, iv := range naiveTimeline(el, m, a) {
					durs = append(durs, iv.Len())
				}
				slices.Sort(durs)
				dist, ok := d.Distribution(a)
				if ok != (len(durs) > 0) {
					t.Fatalf("%s: distribution ok = %v over %d events", name, ok, len(durs))
				}
				if !ok {
					continue
				}
				var total time.Duration
				for _, x := range durs {
					total += x
				}
				if dist.Events != len(durs) || dist.Min != durs[0] || dist.Max != durs[len(durs)-1] ||
					dist.Total != total || dist.P50 != durs[(len(durs)-1)/2] {
					t.Errorf("%s: distribution = %+v over sorted durations %v", name, dist, durs)
				}
			}
		}
	}
}
