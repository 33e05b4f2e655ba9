package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

func mkLog(t *testing.T, caseEvents map[int][]trace.Event) *trace.EventLog {
	t.Helper()
	var cases []*trace.Case
	rids := make([]int, 0, len(caseEvents))
	for rid := range caseEvents {
		rids = append(rids, rid)
	}
	sort.Ints(rids)
	for _, rid := range rids {
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "s", Host: "h", RID: rid}, caseEvents[rid]))
	}
	return trace.MustNewEventLog(cases...)
}

// computeLog runs the statistics path of the fold over a materialized
// log: map every case up front, reserve the spans at their exact size,
// fold each case's symbols, sort and finalize.
func computeLog(el *trace.EventLog, m pm.Mapping) *Stats {
	c := NewComputer(m)
	syms := make([]intern.Sym, 0, el.NumEvents())
	for _, cs := range el.Cases() {
		syms = c.sm.MapCase(cs, syms)
	}
	c.Reserve(syms)
	for _, cs := range el.Cases() {
		n := len(cs.Events)
		c.AddMapped(cs, syms[:n])
		syms = syms[n:]
	}
	c.Sort()
	return c.Finalize()
}

func callMapping() pm.Mapping {
	return pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) { return pm.Activity(e.Call), true })
}

func TestComputeRelativeDuration(t *testing.T) {
	// Two activities: "a" with total duration 3ms, "b" with 1ms.
	el := mkLog(t, map[int][]trace.Event{
		1: {
			{Call: "a", Start: 0, Dur: 2 * time.Millisecond, Size: 100},
			{Call: "b", Start: 10 * time.Millisecond, Dur: time.Millisecond, Size: 100},
		},
		2: {
			{Call: "a", Start: 0, Dur: time.Millisecond, Size: 100},
		},
	})
	s := computeLog(el, callMapping())
	a, b := s.Get("a"), s.Get("b")
	if a == nil || b == nil {
		t.Fatalf("missing stats: %v %v", a, b)
	}
	if got := a.RelDur; math.Abs(got-0.75) > 1e-12 {
		t.Errorf("rd(a) = %v, want 0.75", got)
	}
	if got := b.RelDur; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("rd(b) = %v, want 0.25", got)
	}
	if a.Events != 2 || b.Events != 1 {
		t.Errorf("events = %d/%d", a.Events, b.Events)
	}
	if a.TotalDur != 3*time.Millisecond {
		t.Errorf("total dur(a) = %v", a.TotalDur)
	}
	if got := s.MaxRelDur(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MaxRelDur = %v", got)
	}
}

func TestComputeBytesAndRate(t *testing.T) {
	el := mkLog(t, map[int][]trace.Event{
		1: {
			// 1000 bytes in 1ms = 1e6 B/s; 3000 bytes in 1ms = 3e6 B/s.
			{Call: "read", Start: 0, Dur: time.Millisecond, Size: 1000},
			{Call: "read", Start: 5 * time.Millisecond, Dur: time.Millisecond, Size: 3000},
			// openat carries no size and must not disturb the rate.
			{Call: "openat", Start: 8 * time.Millisecond, Dur: time.Millisecond, Size: trace.SizeUnknown},
		},
	})
	s := computeLog(el, callMapping())
	rd := s.Get("read")
	if rd.Bytes != 4000 || !rd.HasBytes {
		t.Errorf("bytes = %d (has=%v), want 4000", rd.Bytes, rd.HasBytes)
	}
	// Mean of per-event rates, Equation (13): (1e6 + 3e6)/2 = 2e6 B/s.
	if math.Abs(rd.ProcRate-2e6) > 1 {
		t.Errorf("rate = %v, want 2e6", rd.ProcRate)
	}
	op := s.Get("openat")
	if op.HasBytes || op.Bytes != 0 || op.ProcRate != 0 {
		t.Errorf("openat stats = %+v, want no bytes/rate", op)
	}
}

func TestComputeZeroDurationEventsExcludedFromRate(t *testing.T) {
	el := mkLog(t, map[int][]trace.Event{
		1: {
			{Call: "read", Start: 0, Dur: 0, Size: 500},
			{Call: "read", Start: time.Millisecond, Dur: time.Millisecond, Size: 1000},
		},
	})
	s := computeLog(el, callMapping())
	rd := s.Get("read")
	if math.Abs(rd.ProcRate-1e6) > 1 {
		t.Errorf("rate = %v, want 1e6 (zero-duration event excluded)", rd.ProcRate)
	}
	if rd.Bytes != 1500 {
		t.Errorf("bytes = %d, want 1500 (zero-duration event still counted)", rd.Bytes)
	}
}

func TestMaxConcurrencyPaperExample(t *testing.T) {
	// Figure 5: three cases each reading /usr/lib three times; the
	// max concurrency of read:/usr/lib in C_b is 2.
	iv := func(startMs, endMs int) trace.Interval {
		return trace.Interval{Start: time.Duration(startMs) * time.Millisecond, End: time.Duration(endMs) * time.Millisecond}
	}
	intervals := []trace.Interval{
		iv(0, 2), iv(3, 5), iv(6, 8), // case 1
		iv(1, 3), iv(9, 10), iv(11, 12), // case 2 — first overlaps case 1's first
		iv(20, 21), iv(22, 23), iv(24, 25), // case 3 — disjoint
	}
	if got := MaxConcurrency(intervals); got != 2 {
		t.Errorf("MaxConcurrency = %d, want 2", got)
	}
}

func TestMaxConcurrencyEdgeCases(t *testing.T) {
	if got := MaxConcurrency(nil); got != 0 {
		t.Errorf("empty = %d, want 0", got)
	}
	one := []trace.Interval{{Start: 0, End: time.Second}}
	if got := MaxConcurrency(one); got != 1 {
		t.Errorf("single = %d, want 1", got)
	}
	// Touching intervals (end == start) are not concurrent.
	touch := []trace.Interval{{Start: 0, End: 5}, {Start: 5, End: 10}}
	if got := MaxConcurrency(touch); got != 1 {
		t.Errorf("touching = %d, want 1", got)
	}
	// Fully nested intervals.
	nested := []trace.Interval{{Start: 0, End: 100}, {Start: 10, End: 20}, {Start: 30, End: 40}}
	if got := MaxConcurrency(nested); got != 2 {
		t.Errorf("nested = %d, want 2", got)
	}
	// All identical.
	same := []trace.Interval{{Start: 0, End: 10}, {Start: 0, End: 10}, {Start: 0, End: 10}}
	if got := MaxConcurrency(same); got != 3 {
		t.Errorf("identical = %d, want 3", got)
	}
	// Unsorted input is handled (the function sorts internally).
	unsorted := []trace.Interval{{Start: 50, End: 60}, {Start: 0, End: 55}}
	if got := MaxConcurrency(unsorted); got != 2 {
		t.Errorf("unsorted = %d, want 2", got)
	}
}

// Property: MaxConcurrency matches a brute-force count at every
// interval start t: the intervals open over t (start <= t < end), plus
// one when every interval starting at t has zero duration — such an
// interval is open at its own instant, and the sweep counts it there
// only when nothing longer starts with it. quick.Check runs once per
// generator regime: wide overlaps (starts in 0–99ms, durations
// 1–30ms), where the end heap holds many distinct ends, and ties
// (starts in 0–11ms, durations 0–3ms), where equal starts, identical
// intervals and zero durations are common.
func TestMaxConcurrencyMatchesBruteForce(t *testing.T) {
	brute := func(ivs []trace.Interval) int {
		max := 0
		for _, probe := range ivs {
			at := probe.Start
			n, onlyZero := 0, true
			for _, iv := range ivs {
				if iv.Start <= at && at < iv.End {
					n++
				}
				if iv.Start == at && iv.End > at {
					onlyZero = false
				}
			}
			if onlyZero {
				n++
			}
			if n > max {
				max = n
			}
		}
		return max
	}
	regimes := []struct {
		name           string
		starts         int // starts drawn from [0, starts) ms
		minDur, maxDur int // durations drawn from [minDur, maxDur] ms
		count          int
	}{
		{"wide overlaps", 100, 1, 30, 200},
		{"ties", 12, 0, 3, 500},
	}
	for _, r := range regimes {
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			k := int(n%40) + 1
			ivs := make([]trace.Interval, k)
			for i := range ivs {
				s := time.Duration(rng.Intn(r.starts)) * time.Millisecond
				d := time.Duration(r.minDur+rng.Intn(r.maxDur-r.minDur+1)) * time.Millisecond
				ivs[i] = trace.Interval{Start: s, End: s + d}
			}
			return MaxConcurrency(ivs) == brute(ivs)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: r.count}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
}

// Property: relative durations over all activities sum to 1 (when any
// duration exists at all).
func TestRelDurSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := map[int][]trace.Event{}
		for rid := 0; rid < 1+rng.Intn(4); rid++ {
			n := 1 + rng.Intn(30)
			for j := 0; j < n; j++ {
				evs[rid] = append(evs[rid], trace.Event{
					Call:  []string{"read", "write", "openat"}[rng.Intn(3)],
					Start: time.Duration(j) * time.Millisecond,
					Dur:   time.Duration(1+rng.Intn(500)) * time.Microsecond,
					Size:  int64(rng.Intn(1000)) - 1,
				})
			}
		}
		var cases []*trace.Case
		for rid, e := range evs {
			cases = append(cases, trace.NewCase(trace.CaseID{CID: "q", Host: "h", RID: rid}, e))
		}
		el := trace.MustNewEventLog(cases...)
		s := computeLog(el, pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
			return pm.Activity(e.Call), true
		}))
		sum := 0.0
		for _, a := range s.Activities() {
			sum += s.Get(a).RelDur
		}
		return math.Abs(sum-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeRespectsPartialMapping(t *testing.T) {
	el := mkLog(t, map[int][]trace.Event{
		1: {
			{Call: "read", FP: "/usr/lib/a", Start: 0, Dur: time.Millisecond, Size: 10},
			{Call: "read", FP: "/etc/b", Start: time.Millisecond, Dur: 3 * time.Millisecond, Size: 10},
		},
	})
	m := pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
		if !strings.Contains(e.FP, "/usr/lib") {
			return "", false
		}
		return pm.CallTopDirs{Depth: 2}.Map(e)
	})
	s := computeLog(el, m)
	if len(s.Activities()) != 1 {
		t.Fatalf("activities = %v", s.Activities())
	}
	st := s.Get("read:/usr/lib")
	// The excluded event must not appear in the rd denominator.
	if st.RelDur != 1.0 {
		t.Errorf("rd = %v, want 1.0 (denominator only over mapped events)", st.RelDur)
	}
}

func TestTimeline(t *testing.T) {
	el := mkLog(t, map[int][]trace.Event{
		2: {{Call: "read", FP: "/usr/lib/a", Start: 5 * time.Millisecond, Dur: time.Millisecond, Size: 1}},
		1: {
			{Call: "read", FP: "/usr/lib/a", Start: 2 * time.Millisecond, Dur: time.Millisecond, Size: 1},
			{Call: "write", FP: "/dev/pts/1", Start: 3 * time.Millisecond, Dur: time.Millisecond, Size: 1},
		},
	})
	d := detailOf(el, pm.CallTopDirs{Depth: 2})
	tl := d.Timeline("read:/usr/lib")
	if len(tl) != 2 {
		t.Fatalf("timeline = %v", tl)
	}
	if tl[0].Start != 2*time.Millisecond || tl[0].Case.RID != 1 {
		t.Errorf("timeline[0] = %+v", tl[0])
	}
	if tl[1].Start != 5*time.Millisecond || tl[1].Case.RID != 2 {
		t.Errorf("timeline[1] = %+v", tl[1])
	}
	if got := d.Timeline("no:such"); len(got) != 0 {
		t.Errorf("absent activity timeline = %v", got)
	}
}

// The max-concurrency of an activity equals MaxConcurrency over its
// timeline — the computer and Timeline must agree.
func TestComputeTimelineConsistency(t *testing.T) {
	el := mkLog(t, map[int][]trace.Event{
		1: {
			{Call: "read", FP: "/f", Start: 0, Dur: 10 * time.Millisecond, Size: 1},
			{Call: "read", FP: "/f", Start: 5 * time.Millisecond, Dur: 10 * time.Millisecond, Size: 1},
		},
		2: {{Call: "read", FP: "/f", Start: 7 * time.Millisecond, Dur: 10 * time.Millisecond, Size: 1}},
	})
	m := callMapping()
	s := computeLog(el, m)
	tl := detailOf(el, m).Timeline("read")
	if got, want := s.Get("read").MaxConc, MaxConcurrency(tl); got != want {
		t.Errorf("computer mc = %d, Timeline mc = %d", got, want)
	}
	if s.Get("read").MaxConc != 3 {
		t.Errorf("mc = %d, want 3", s.Get("read").MaxConc)
	}
}
