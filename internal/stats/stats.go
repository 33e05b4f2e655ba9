// Package stats computes the per-activity statistics of Section IV-B of
// the paper: relative duration (Equations 6–8), total bytes moved
// (Equation 9), process data rate (Equations 11–13) and max-concurrency
// (Equations 14–16), plus the timeline data behind Figure 5.
package stats

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

// ActivityStats aggregates the paper's four statistics for one activity.
type ActivityStats struct {
	// Activity is the activity these statistics describe.
	Activity pm.Activity
	// Events is |f⁻¹(a) ∩ C|: the number of events mapping to the
	// activity.
	Events int
	// TotalDur is d̄_f(a, C) of Equation (7): the summed duration of
	// the activity's events.
	TotalDur time.Duration
	// RelDur is rd_f(a, C) of Equation (8): TotalDur normalized by the
	// total duration over all activities.
	RelDur float64
	// Bytes is b_f(a, C) of Equation (9): total bytes moved. HasBytes
	// is false when no event of the activity carries a transfer size
	// (openat, lseek, ...), in which case the paper's figures omit the
	// byte and rate annotations.
	Bytes    int64
	HasBytes bool
	// ProcRate is d̄r_f(a, C) of Equation (13): the arithmetic mean
	// over events of size/duration, in bytes per second. Per-event
	// rates are accumulated as exact integers (⌊size·10⁹/dur_ns⌋, a
	// 128-bit sum) with the division deferred to Finalize, so the
	// value never depends on fold order or shard count.
	ProcRate float64
	// MaxConc is mc_f(a, C) of Equation (16): the maximum number of
	// concurrent events of the activity.
	MaxConc int
}

// Stats maps every activity of an activity-log to its statistics.
type Stats struct {
	byActivity map[pm.Activity]*ActivityStats
	// TotalDur is the denominator of Equation (8): the summed duration
	// across all activities.
	TotalDur time.Duration
}

// Get returns the statistics of an activity, or nil.
func (s *Stats) Get(a pm.Activity) *ActivityStats { return s.byActivity[a] }

// Activities returns the activities with statistics, sorted.
func (s *Stats) Activities() []pm.Activity {
	out := make([]pm.Activity, 0, len(s.byActivity))
	for a := range s.byActivity {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Calls returns the sorted set of the activities' call names. Under a
// mapping that maps every event to "call" or "call:path", as every
// mapping stinspect offers does, this is the event-log's call set.
func (s *Stats) Calls() []string {
	var out []string
	for a := range s.byActivity {
		call, _ := a.Parts()
		out = append(out, call)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// MaxRelDur returns the largest relative duration, used by the
// statistics-based coloring to scale its shades.
func (s *Stats) MaxRelDur() float64 {
	m := 0.0
	for _, st := range s.byActivity {
		if st.RelDur > m {
			m = st.RelDur
		}
	}
	return m
}

// rateSum is an exact 128-bit accumulator for per-event data rates in
// bytes per second. Integer addition is associative and commutative, so
// partial sums merge without the last-bit drift a floating-point fold
// would pick up from re-association — the property that keeps shard
// count unobservable in the artifacts.
type rateSum struct{ hi, lo uint64 }

// add folds another sum (or one event's 128-bit rate quotient) in.
func (s *rateSum) add(o rateSum) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, o.lo, 0)
	s.hi = s.hi + o.hi + carry
}

// float64 converts the exact sum for the Finalize division. The double
// rounding is deterministic: it is a pure function of (hi, lo).
func (s rateSum) float64() float64 {
	return float64(s.hi)*0x1p64 + float64(s.lo)
}

// eventRate returns ⌊size·10⁹/dur_ns⌋ — the event's data rate of
// Equation (11) in integer bytes per second — as a 128-bit value, so
// even a multi-GB transfer over a 1ns duration cannot overflow.
func eventRate(size int64, dur time.Duration) rateSum {
	hi, lo := bits.Mul64(uint64(size), 1e9)
	d := uint64(dur)
	qhi := hi / d
	qlo, _ := bits.Div64(hi%d, lo, d)
	return rateSum{hi: qhi, lo: qlo}
}

// span is one event's interval t(e) of Equation (14) as the
// max-concurrency sweep reads it: start and end, 16 bytes, with no case
// identity. The sweep cannot tell two equal spans apart, so sorting
// spans by (start, end) is a total order for every purpose the
// statistics have.
type span struct{ start, end time.Duration }

// spanOf builds the span of [start, end]. An end before the start
// (a negative duration, or an end that overflowed) is clamped to the
// start: the sweep counts such an interval exactly like a zero-duration
// one, and the clamp keeps end >= start, which the snapshot encoding of
// durations as unsigned integers relies on.
func spanOf(start, end time.Duration) span {
	return span{start: start, end: max(start, end)}
}

// cmpSpan orders spans by start, then end.
func cmpSpan(a, b span) int {
	if c := cmp.Compare(a.start, b.start); c != 0 {
		return c
	}
	return cmp.Compare(a.end, b.end)
}

// mergeSpans merges the sorted run b into the sorted run a and returns
// the result, which may share a's array: a backward merge in a's
// grown storage, so no second buffer is allocated. b is only read.
func mergeSpans(a, b []span) []span {
	n, m := len(a), len(b)
	if n == 0 || m == 0 || cmpSpan(a[n-1], b[0]) <= 0 {
		return append(a, b...)
	}
	out := slices.Grow(a, m)[:n+m]
	i, j := n-1, m-1
	for k := n + m - 1; j >= 0; k-- {
		if i >= 0 && cmpSpan(out[i], b[j]) > 0 {
			out[k] = out[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
	return out
}

// accum carries one activity's running state: the integral aggregates
// (counts, durations, byte totals, the 128-bit rate sum of Equation 13)
// and the spans behind the max-concurrency sweep (Equation 16 needs
// every interval; this is the one statistic whose working set grows
// with the activity's events rather than the batch).
type accum struct {
	events    int
	totalDur  time.Duration
	bytes     int64
	hasBytes  bool
	rate      rateSum
	rateCount int64
	// spans are in (start, end) order unless unsorted is set: appending
	// a case out of order sets it, and sort clears it.
	spans    []span
	unsorted bool
}

// sort puts the spans in (start, end) order, in place.
func (a *accum) sort() {
	if a.unsorted {
		slices.SortFunc(a.spans, cmpSpan)
		a.unsorted = false
	}
}

// merge folds another partial accumulation in, consuming o. Every
// operation is exact: integer sums, a boolean or, and a span multiset
// union — a linear merge of two sorted runs, either side sorted in
// place first if it is not, so the result is always sorted.
func (a *accum) merge(o *accum) {
	a.events += o.events
	a.totalDur += o.totalDur
	a.bytes += o.bytes
	a.hasBytes = a.hasBytes || o.hasBytes
	a.rate.add(o.rate)
	a.rateCount += o.rateCount
	a.sort()
	o.sort()
	a.spans = mergeSpans(a.spans, o.spans)
}

// sortedSpans returns the spans in (start, end) order without changing
// the accumulator: the spans themselves when they are sorted, else a
// sorted copy.
func (a *accum) sortedSpans() []span {
	if !a.unsorted {
		return a.spans
	}
	s := slices.Clone(a.spans)
	slices.SortFunc(s, cmpSpan)
	return s
}

// Computer accumulates the Section IV-B statistics one case at a time;
// the analysis fold feeds it. The computation is a single pass over the
// events followed by a per-activity aggregation, O(n + Σ_a k_a log k_a)
// where the log factor comes from the max-concurrency interval sort.
// All running state is integral (counts, durations, byte totals, the
// 128-bit rate sum), so any partition of the cases over partial
// computers followed by Merge reproduces the sequential fold exactly;
// the only divisions happen in Finalize.
//
// The computer groups in symbol space: events map to dense activity
// symbols through a pm.SymMapper (its own, or the shard's shared one
// via NewComputerSym), and the per-activity state lives in a slice
// indexed by symbol — no string-keyed map operation per event.
type Computer struct {
	sm       *pm.SymMapper
	totalDur time.Duration
	accs     []accum      // indexed by activity symbol; events==0 ⇒ absent
	symsbuf  []intern.Sym // Add scratch
}

// NewComputer returns an empty computer for the mapping.
func NewComputer(m pm.Mapping) *Computer {
	return NewComputerSym(pm.NewSymMapper(m))
}

// NewComputerSym returns an empty computer over a caller-supplied
// SymMapper, sharing the shard's activity symbol table so a case
// mapped once can feed the activity-log, DFG and statistics builders.
func NewComputerSym(sm *pm.SymMapper) *Computer {
	return &Computer{sm: sm}
}

// Add folds one case's events into the running statistics.
func (c *Computer) Add(cs *trace.Case) {
	c.symsbuf = c.sm.MapCase(cs, c.symsbuf[:0])
	c.AddMapped(cs, c.symsbuf)
}

// Reserve sizes every activity's spans for the events whose symbols,
// mapped through the computer's SymMapper, are syms, so that adding
// them through AddMapped never grows a span array.
func (c *Computer) Reserve(syms []intern.Sym) {
	counts := make([]int, c.sm.Acts().Len())
	for _, y := range syms {
		if y != pm.NoActivity {
			counts[y]++
		}
	}
	if n := len(counts) - len(c.accs); n > 0 {
		c.accs = append(c.accs, make([]accum, n)...)
	}
	for y, n := range counts {
		c.accs[y].spans = slices.Grow(c.accs[y].spans, n)
	}
}

// AddMapped folds one case given its pre-mapped activity symbols (one
// entry per event, pm.NoActivity for events outside the domain), as
// produced by the shared SymMapper's MapCase.
func (c *Computer) AddMapped(cs *trace.Case, syms []intern.Sym) {
	for i := range cs.Events {
		y := syms[i]
		if y == pm.NoActivity {
			continue
		}
		for int(y) >= len(c.accs) {
			c.accs = append(c.accs, accum{})
		}
		e := &cs.Events[i]
		ac := &c.accs[y]
		ac.events++
		ac.totalDur += e.Dur
		c.totalDur += e.Dur
		if e.HasSize() {
			ac.bytes += e.Size
			ac.hasBytes = true
			if e.Dur > 0 {
				// dr(e) = e[size] / e[dur], Equation (11), kept as an
				// exact integer so partials merge bit-for-bit.
				ac.rate.add(eventRate(e.Size, e.Dur))
				ac.rateCount++
			}
		}
		sp := spanOf(e.Start, e.Start+e.Dur)
		if n := len(ac.spans); n > 0 && cmpSpan(sp, ac.spans[n-1]) < 0 {
			ac.unsorted = true
		}
		ac.spans = append(ac.spans, sp)
	}
}

// Sort puts every activity's spans in (start, end) order, in place. A
// sorted computer merges with another sorted one in linear time,
// finalizes without copying or sorting, and encodes without a copy.
// The sharded fold sorts each shard's partial once, before the merge;
// Add keeps track of whether a later Sort has work to do.
func (c *Computer) Sort() {
	for y := range c.accs {
		c.accs[y].sort()
	}
}

// Merge folds another computer's partial state into c, exactly: counts,
// durations and byte totals are integer sums, the data-rate numerators
// are 128-bit integer sums, and the span sets merge linearly as sorted
// runs, so the merged computer is sorted. A side that is not sorted
// (see Sort) is sorted in place first, o's included. o's
// shard-local activity symbols are remapped through c's table, so
// merging shard partials in any order reproduces the sequential fold
// bit-for-bit. Both computers must have been built for the same
// mapping; o must not be used afterwards. A nil o is a no-op, as in
// pm.Log.Merge and dfg.Graph.Merge.
func (c *Computer) Merge(o *Computer) {
	if o == nil {
		return
	}
	c.totalDur += o.totalDur
	r := o.sm.Acts().RemapInto(c.sm.Acts())
	for y := range o.accs {
		oac := &o.accs[y]
		if oac.events == 0 {
			continue
		}
		m := r[y]
		for int(m) >= len(c.accs) {
			c.accs = append(c.accs, accum{})
		}
		c.accs[m].merge(oac)
	}
}

// Finalize runs the per-activity aggregation (mean rate, max-concurrency
// sweep, relative-duration normalization), materializes the
// string-keyed statistics and returns them. On a sorted computer the
// max-concurrency sweep walks each activity's spans in place, with no
// copy and no sort; an unsorted one (finalized in the middle of a fold,
// say) sweeps a sorted copy. Either way Finalize only reads the
// computer, so it may be called again, concurrently with other readers,
// and the computer may keep folding and merging afterwards: a later
// Finalize reflects everything folded so far.
func (c *Computer) Finalize() *Stats {
	s := &Stats{
		byActivity: make(map[pm.Activity]*ActivityStats, len(c.accs)),
		TotalDur:   c.totalDur,
	}
	acts := c.sm.Acts()
	for y := range c.accs {
		ac := &c.accs[y]
		if ac.events == 0 {
			continue
		}
		st := &ActivityStats{
			Activity: pm.Activity(acts.Str(intern.Sym(y))),
			Events:   ac.events,
			TotalDur: ac.totalDur,
			Bytes:    ac.bytes,
			HasBytes: ac.hasBytes,
		}
		if ac.rateCount > 0 {
			st.ProcRate = ac.rate.float64() / float64(ac.rateCount)
		}
		st.MaxConc = sweep(ac.sortedSpans())
		if c.totalDur > 0 {
			st.RelDur = float64(st.TotalDur) / float64(c.totalDur)
		}
		s.byActivity[st.Activity] = st
	}
	return s
}

// MaxConcurrency implements get_max_concurrency of Equation (16): sort
// the intervals by start timestamp, sweep with a min-heap of end times,
// and report the peak number of simultaneously open intervals. An
// interval must strictly overlap (end > start) to count as concurrent,
// matching the paper's "end time of the first event is greater than the
// start time of the last event". O(k log k).
//
// The sweep reads only each interval's start and end, in (start, end)
// order; intervals equal in both are interchangeable to it, so the
// result is a pure function of the interval multiset whatever order the
// intervals were collected in. Equal-start ties resolve the same way
// every time: a zero-duration interval is swept before a longer one
// with the same start, and so never inflates the count. An interval
// whose end precedes its start counts as a zero-duration one. It is the
// sweep Finalize runs over an activity's spans.
func MaxConcurrency(intervals []trace.Interval) int {
	spans := make([]span, len(intervals))
	for i, iv := range intervals {
		spans[i] = spanOf(iv.Start, iv.End)
	}
	slices.SortFunc(spans, cmpSpan)
	return sweep(spans)
}

// sweep returns the peak number of simultaneously open spans over
// spans sorted by (start, end).
func sweep(spans []span) int {
	if len(spans) == 0 {
		return 0
	}
	ends := make(endHeap, 0, 16)
	maxOpen := 0
	for _, sp := range spans {
		for len(ends) > 0 && ends[0] <= sp.start {
			ends.pop()
		}
		ends.push(sp.end)
		if len(ends) > maxOpen {
			maxOpen = len(ends)
		}
	}
	return maxOpen
}

// endHeap is a hand-rolled min-heap of end timestamps. container/heap
// would box every Push/Pop value into an interface — two allocations
// per event in the Finalize sweep, the last per-event allocations of
// the whole analysis fold.
type endHeap []time.Duration

func (h *endHeap) push(v time.Duration) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *endHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l] < s[small] {
			small = l
		}
		if r < n && s[r] < s[small] {
			small = r
		}
		if small == i {
			return
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}
