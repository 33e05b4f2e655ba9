package stats

import (
	"slices"
	"sort"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

// Detail is the per-case detail fold behind the views the DFG and
// statistics fold drops: the Figure 5 timeline t_f(a, C) of Equation
// (15), the duration distribution and the per-process straggler table.
// Add maps each case once through a pm.SymMapper and keeps, for every
// activity, each event's interval plus one run per case with the
// case's totals. Cases must be added in CaseID order — the order of
// an event-log and of every source — so that the queries see the
// event-log's order. Queries do not modify the Detail and may run
// concurrently once every case is added.
type Detail struct {
	sm    *pm.SymMapper
	syms  []intern.Sym // per-case mapping scratch, reused
	cases []trace.CaseID
	acts  []actDetail // indexed by activity symbol
}

// actDetail is what Detail keeps of one activity, in the order added:
// every event's interval [start, start+dur], unclamped, and one run per
// case with an event of the activity.
type actDetail struct {
	spans []span
	runs  []caseRun
}

// caseRun is one case's events of an activity: the next n spans, with
// their summed duration and bytes.
type caseRun struct {
	cas   int32 // index into Detail.cases
	n     int32
	dur   time.Duration
	bytes int64
}

// NewDetail returns an empty detail fold under mapping m.
func NewDetail(m pm.Mapping) *Detail {
	return &Detail{sm: pm.NewSymMapper(m)}
}

// Add folds one case.
func (d *Detail) Add(c *trace.Case) {
	ci := int32(len(d.cases))
	d.cases = append(d.cases, c.ID)
	d.syms = d.sm.MapCase(c, d.syms[:0])
	for i := range c.Events {
		a := d.syms[i]
		if a == pm.NoActivity {
			continue
		}
		e := &c.Events[i]
		for int(a) >= len(d.acts) {
			d.acts = append(d.acts, actDetail{})
		}
		ad := &d.acts[a]
		ad.spans = append(ad.spans, span{start: e.Start, end: e.Start + e.Dur})
		if n := len(ad.runs); n == 0 || ad.runs[n-1].cas != ci {
			ad.runs = append(ad.runs, caseRun{cas: ci})
		}
		r := &ad.runs[len(ad.runs)-1]
		r.n++
		r.dur += e.Dur
		if e.HasSize() {
			r.bytes += e.Size
		}
	}
}

// activity returns what d keeps of activity a, nil when no event maps
// to it.
func (d *Detail) activity(a pm.Activity) *actDetail {
	if s, ok := d.sm.Acts().Sym(string(a)); ok && int(s) < len(d.acts) {
		return &d.acts[s]
	}
	return nil
}

// Timeline returns t_f(a, C) of Equation (15): the intervals of every
// event of the activity, ordered by start time, with their case
// identities. This is the data behind the timeline plot of Figure 5.
func (d *Detail) Timeline(a pm.Activity) []trace.Interval {
	ad := d.activity(a)
	if ad == nil {
		return nil
	}
	out := make([]trace.Interval, 0, len(ad.spans))
	spans := ad.spans
	for _, r := range ad.runs {
		for _, s := range spans[:r.n] {
			out = append(out, trace.Interval{Start: s.start, End: s.end, Case: d.cases[r.cas]})
		}
		spans = spans[r.n:]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Case.Less(out[j].Case)
	})
	return out
}

// distribution summarizes the duration distribution of one activity's
// events. The paper's Load annotation is a sum; the distribution view
// separates "many moderately slow calls" from "a few pathologically slow
// ones" — the signature difference between bandwidth-bound and
// contention-bound activities (compare the SSF write durations of
// Figure 8, where rare token revocations carry most of the time).
type distribution struct {
	Activity pm.Activity
	Events   int
	Min      time.Duration
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
	Total    time.Duration
	// TailShare is the fraction of total duration carried by the
	// slowest 5% of events; values near 1 indicate contention spikes.
	TailShare float64
}

// Distribution derives the duration distribution of one activity. The
// second return value is false when no event maps to the activity.
func (d *Detail) Distribution(a pm.Activity) (distribution, bool) {
	ad := d.activity(a)
	if ad == nil {
		return distribution{}, false
	}
	durs := make([]time.Duration, len(ad.spans))
	var total, tail time.Duration
	for i, s := range ad.spans {
		durs[i] = s.end - s.start
		total += durs[i]
	}
	slices.Sort(durs)
	for _, x := range durs[int(float64(len(durs))*0.95):] {
		tail += x
	}
	dist := distribution{
		Activity: a,
		Events:   len(durs),
		Min:      durs[0],
		P50:      quantile(durs, 0.50),
		P95:      quantile(durs, 0.95),
		P99:      quantile(durs, 0.99),
		Max:      durs[len(durs)-1],
		Total:    total,
	}
	if total > 0 {
		dist.TailShare = float64(tail) / float64(total)
	}
	return dist, true
}

// quantile returns the q-quantile of non-empty sorted durations
// (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[int(q*float64(len(sorted)-1))]
}

// caseSummary aggregates one case's contribution to an activity (or to
// the whole log when the activity filter is nil): the straggler view.
type caseSummary struct {
	Case     trace.CaseID
	Events   int
	TotalDur time.Duration
	Bytes    int64
}

// PerCase summarizes every case's contribution to activity a (all
// activities when a is empty), sorted by descending total duration, so
// the slowest process — the straggler the paper's timeline plot is used
// to find — comes first.
func (d *Detail) PerCase(a pm.Activity) []caseSummary {
	acts := d.acts
	if a != "" {
		acts = nil
		if ad := d.activity(a); ad != nil {
			acts = []actDetail{*ad}
		}
	}
	sums := make([]caseSummary, len(d.cases))
	for _, ad := range acts {
		for _, r := range ad.runs {
			cs := &sums[r.cas]
			cs.Events += int(r.n)
			cs.TotalDur += r.dur
			cs.Bytes += r.bytes
		}
	}
	var out []caseSummary
	for i, cs := range sums {
		if cs.Events > 0 {
			cs.Case = d.cases[i]
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
