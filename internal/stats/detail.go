package stats

import (
	"sort"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

// Distribution summarizes the duration distribution of one activity's
// events. The paper's Load annotation is a sum; the distribution view
// separates "many moderately slow calls" from "a few pathologically slow
// ones" — the signature difference between bandwidth-bound and
// contention-bound activities (compare the SSF write durations of
// Figure 8, where rare token revocations carry most of the time).
type Distribution struct {
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

// ComputeDistribution derives the duration distribution of one activity.
// The second return value is false when no event maps to the activity.
func ComputeDistribution(el *trace.EventLog, m pm.Mapping, a pm.Activity) (Distribution, bool) {
	var durs []time.Duration
	el.Events(func(e trace.Event) {
		if got, ok := m.Map(e); ok && got == a {
			durs = append(durs, e.Dur)
		}
	})
	if len(durs) == 0 {
		return Distribution{}, false
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	d := Distribution{
		Activity: a,
		Events:   len(durs),
		Min:      durs[0],
		P50:      quantile(durs, 0.50),
		P95:      quantile(durs, 0.95),
		P99:      quantile(durs, 0.99),
		Max:      durs[len(durs)-1],
		Total:    total,
	}
	tailStart := int(float64(len(durs)) * 0.95)
	var tail time.Duration
	for _, dd := range durs[tailStart:] {
		tail += dd
	}
	if total > 0 {
		d.TailShare = float64(tail) / float64(total)
	}
	return d, true
}

// quantile returns the q-quantile of sorted durations (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// CaseSummary aggregates one case's contribution to an activity (or to
// the whole log when the activity filter is nil): the straggler view.
type CaseSummary struct {
	Case     trace.CaseID
	Events   int
	TotalDur time.Duration
	Bytes    int64
}

// PerCase summarizes every case's contribution to activity a (all
// activities when a is empty), sorted by descending total duration, so
// the slowest process — the straggler the paper's timeline plot is used
// to find — comes first.
func PerCase(el *trace.EventLog, m pm.Mapping, a pm.Activity) []CaseSummary {
	var out []CaseSummary
	for _, c := range el.Cases() {
		cs := CaseSummary{Case: c.ID}
		for _, e := range c.Events {
			if got, ok := m.Map(e); !ok || (a != "" && got != a) {
				continue
			}
			cs.Events++
			cs.TotalDur += e.Dur
			if e.HasSize() {
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
