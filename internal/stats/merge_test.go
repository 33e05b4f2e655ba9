package stats

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// serialize renders every statistic of every activity with floats at
// full precision, so a single-bit divergence between two Stats fails a
// string comparison.
func serialize(s *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "totaldur=%d\n", int64(s.TotalDur))
	for _, a := range s.Activities() {
		st := s.Get(a)
		fmt.Fprintf(&b, "%s events=%d totaldur=%d reldur=%s bytes=%d/%v procrate=%s maxconc=%d\n",
			a, st.Events, int64(st.TotalDur),
			strconv.FormatFloat(st.RelDur, 'g', -1, 64),
			st.Bytes, st.HasBytes,
			strconv.FormatFloat(st.ProcRate, 'g', -1, 64),
			st.MaxConc)
	}
	return b.String()
}

// TestMergeMatchesSequential256 is the stats merge law at scale: over
// the 256-rank synth set, folding the cases round-robin into k partial
// computers, merging them into the first with Computer.Merge and
// finalizing must be byte-identical to the sequential
// computer — including the two floating-point outputs (RelDur,
// ProcRate), which derive from exact integer accumulators — for every
// shard count 1..8. This is the property that makes shard count
// unobservable in the artifacts.
func TestMergeMatchesSequential256(t *testing.T) {
	el := synth.Log("merge", 256, 60, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	seq := NewComputer(m)
	for _, c := range el.Cases() {
		seq.Add(c)
	}
	want := serialize(seq.Finalize())

	for shards := 1; shards <= 8; shards++ {
		parts := make([]*Computer, shards)
		for i := range parts {
			parts[i] = NewComputer(m)
		}
		// Round-robin case blocks, like the sharded fold engine.
		for i, c := range el.Cases() {
			parts[(i/4)%shards].Add(c)
		}
		for _, p := range parts[1:] {
			parts[0].Merge(p)
		}
		if got := serialize(parts[0].Finalize()); got != want {
			t.Errorf("shards=%d: merged stats differ from sequential computer.\n--- merged ---\n%s--- sequential ---\n%s", shards, got, want)
		}
	}
}

// TestFinalizeDoesNotConsume: Finalize only reads the computer. A
// second Finalize gives the same statistics, and a computer that was
// finalized, then merged with the rest of the corpus and finalized
// again, equals a one-shot fold — the property that lets a live query
// finalize the fold's state between two epochs.
func TestFinalizeDoesNotConsume(t *testing.T) {
	el := synth.Log("fin", 64, 60, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	cases := el.Cases()
	one := NewComputer(m)
	for _, c := range cases {
		one.Add(c)
	}
	want := serialize(one.Finalize())
	if again := serialize(one.Finalize()); again != want {
		t.Fatalf("second Finalize differs from the first.\n--- second ---\n%s--- first ---\n%s", again, want)
	}

	acc := NewComputer(m)
	for _, c := range cases[:20] {
		acc.Add(c)
	}
	first := serialize(acc.Finalize())
	for lo := 20; lo < len(cases); lo += 15 {
		ep := NewComputer(m)
		for _, c := range cases[lo:min(lo+15, len(cases))] {
			ep.Add(c)
		}
		acc.Merge(ep)
		_ = acc.Finalize()
	}
	if got := serialize(acc.Finalize()); got != want {
		t.Errorf("finalize, merge, finalize differs from a one-shot fold.\n--- got ---\n%s--- one-shot ---\n%s", got, want)
	}
	if first == want {
		t.Fatal("the first 20 cases already give the whole corpus's statistics; the test proves nothing")
	}
}

// TestMergeEmptyAndDisjoint: an empty computer merged with nil
// finalizes to empty stats; partials over disjoint activity sets union
// cleanly.
func TestMergeEmptyAndDisjoint(t *testing.T) {
	empty := NewComputer(callMapping())
	empty.Merge(nil)
	if s := empty.Finalize(); len(s.Activities()) != 0 || s.TotalDur != 0 {
		t.Errorf("empty computer finalizes to %v", s.Activities())
	}
	mk := func(call string, dur time.Duration) *Computer {
		c := NewComputer(callMapping())
		c.Add(trace.NewCase(trace.CaseID{CID: "d", Host: "h", RID: 1}, []trace.Event{
			{Call: call, Start: 0, Dur: dur, Size: 100},
		}))
		return c
	}
	c := mk("read", 3*time.Millisecond)
	c.Merge(nil)
	c.Merge(mk("write", time.Millisecond))
	s := c.Finalize()
	if len(s.Activities()) != 2 {
		t.Fatalf("activities = %v", s.Activities())
	}
	if rd := s.Get("read").RelDur; rd != 0.75 {
		t.Errorf("rd(read) = %v, want 0.75 (denominator merged across partials)", rd)
	}
}

// TestEventRateExact pins the integer rate quotient against hand
// calculations, including a value whose numerator overflows 64 bits.
func TestEventRateExact(t *testing.T) {
	tests := []struct {
		size int64
		dur  time.Duration
		want float64
	}{
		{1000, time.Millisecond, 1e6},
		{3000, time.Millisecond, 3e6},
		{1, time.Second, 1},
		{1, 3 * time.Second, 0},                  // floor(1/3 B/s)
		{1 << 40, time.Nanosecond, 0x1p40 * 1e9}, // needs >64-bit intermediate
	}
	for _, tc := range tests {
		if got := eventRate(tc.size, tc.dur).float64(); got != tc.want {
			t.Errorf("eventRate(%d, %v) = %v, want %v", tc.size, tc.dur, got, tc.want)
		}
	}
	// The 128-bit sum folds the pieces of a split exactly.
	var whole, split rateSum
	whole.add(eventRate(1<<40, time.Nanosecond))
	whole.add(eventRate(1<<40, time.Nanosecond))
	split.add(eventRate(1<<40, time.Nanosecond))
	var other rateSum
	other.add(eventRate(1<<40, time.Nanosecond))
	split.add(other)
	if whole != split {
		t.Errorf("rate sums diverge: %+v vs %+v", whole, split)
	}
}

// TestMaxConcurrencyZeroDurationTies: equal start times with
// zero-duration intervals are exactly where an order-dependent sweep
// leaks the collection order; the totally-ordered sort must give the
// same answer for every input permutation.
func TestMaxConcurrencyZeroDurationTies(t *testing.T) {
	iv := func(s, e int) trace.Interval {
		return trace.Interval{Start: time.Duration(s), End: time.Duration(e)}
	}
	tests := []struct {
		name string
		ivs  []trace.Interval
		want int
	}{
		{"empty", nil, 0},
		{"single zero-duration", []trace.Interval{iv(5, 5)}, 1},
		{"zero-duration then open", []trace.Interval{iv(5, 5), iv(5, 10)}, 1},
		{"open then zero-duration", []trace.Interval{iv(5, 10), iv(5, 5)}, 1},
		{"two zero-duration same start", []trace.Interval{iv(5, 5), iv(5, 5)}, 1},
		{"zero-duration inside open", []trace.Interval{iv(0, 10), iv(5, 5)}, 2},
		{"identical starts open", []trace.Interval{iv(0, 3), iv(0, 7), iv(0, 5)}, 3},
		{"zero plus two opens same start", []trace.Interval{iv(0, 0), iv(0, 5), iv(0, 7)}, 2},
		{"end before start then open", []trace.Interval{iv(5, 3), iv(5, 10)}, 1},
		{"end before start inside open", []trace.Interval{iv(0, 10), iv(5, 3)}, 2},
	}
	for _, tc := range tests {
		if got := MaxConcurrency(tc.ivs); got != tc.want {
			t.Errorf("%s: MaxConcurrency = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMaxConcurrencyPermutationInvariant: the sweep is a pure function
// of the interval multiset — shuffling the input (as shard-order
// concatenation does) never changes the answer, even with equal starts
// and zero durations in the mix.
func TestMaxConcurrencyPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		ivs := make([]trace.Interval, n)
		for i := range ivs {
			s := time.Duration(rng.Intn(6)) * time.Millisecond
			ivs[i] = trace.Interval{
				Start: s,
				End:   s + time.Duration(rng.Intn(4))*time.Millisecond, // often zero-duration
				Case:  trace.CaseID{CID: "p", Host: "h", RID: i},
			}
		}
		want := MaxConcurrency(ivs)
		for shuffle := 0; shuffle < 10; shuffle++ {
			rng.Shuffle(n, func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
			if got := MaxConcurrency(ivs); got != want {
				t.Fatalf("trial %d: permutation changed MaxConcurrency: %d vs %d over %v", trial, got, want, ivs)
			}
		}
	}
}
