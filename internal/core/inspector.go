// Package core implements the paper's primary contribution as a pipeline
// facade: loading event-logs (from strace directories, or from any case
// source such as an STA archive through LoadStream),
// querying them with file-path filters, abstracting events into
// activities with a mapping, synthesizing the Directly-Follows-Graph,
// computing the activity statistics, and applying the two coloring
// strategies. It mirrors the st_inspector workflow of Figure 6:
//
//	insp, _ := core.FromStraceDir("traces/", strace.Options{})   // 0
//	insp = insp.FilterPath("/usr/lib")                           // 1
//	insp = insp.WithMapping(pm.CallTopDirs{Depth: 2})            // 2
//	g := insp.DFG()                                              // 3
//	st := insp.Stats()                                           // 4
//	dot := insp.RenderDOT(render.StatisticsColoring{Stats: st})  // 5a
package core

import (
	"fmt"
	"strings"

	"stinspector/internal/archive"
	"stinspector/internal/behavior"
	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// Inspector holds an event-log and the mapping under which it is
// synthesized. Inspectors are immutable: filters and mapping changes
// return derived inspectors, so several views of one log can coexist.
type Inspector struct {
	log     *trace.EventLog
	mapping pm.Mapping
}

// FromEventLog wraps an existing event-log with the default mapping f̂
// (call + top two directory levels, Equation 4).
func FromEventLog(el *trace.EventLog) *Inspector {
	return &Inspector{log: el, mapping: pm.CallTopDirs{Depth: 2}}
}

// FromStraceDir parses every *.st file under dir (Figure 1's recording
// convention) into an event-log. Files are parsed concurrently under
// opts.Parallelism (default GOMAXPROCS) with a deterministic merge.
func FromStraceDir(dir string, opts strace.Options) (*Inspector, error) {
	el, err := strace.ReadDir(dir, opts)
	if err != nil {
		return nil, err
	}
	return FromEventLog(el), nil
}

// SaveArchive consolidates the inspector's event-log into an STA file.
func (in *Inspector) SaveArchive(path string) error {
	return archive.WriteFileV2(path, in.log)
}

// EventLog exposes the underlying event-log.
func (in *Inspector) EventLog() *trace.EventLog { return in.log }

// Mapping exposes the active mapping.
func (in *Inspector) Mapping() pm.Mapping { return in.mapping }

// FilterPath is the paper's apply_fp_filter (Figure 6, step 1): it
// derives an inspector restricted to events whose file path contains the
// substring.
func (in *Inspector) FilterPath(substr string) *Inspector {
	return &Inspector{log: in.log.FilterPath(substr), mapping: in.mapping}
}

// FilterCalls derives an inspector restricted to the given system calls.
func (in *Inspector) FilterCalls(calls ...string) *Inspector {
	return &Inspector{log: in.log.FilterCalls(calls...), mapping: in.mapping}
}

// WithMapping is apply_mapping_fn (Figure 6, step 2): it derives an
// inspector using the given event-to-activity mapping.
func (in *Inspector) WithMapping(m pm.Mapping) *Inspector {
	return &Inspector{log: in.log, mapping: m}
}

// ActivityLog builds L_f(C) with the virtual start/end activities
// appended.
func (in *Inspector) ActivityLog() *pm.Log {
	return pm.Build(in.log, in.mapping, pm.BuildOptions{Endpoints: true})
}

// DFG synthesizes G[L_f(C)] (Figure 6, step 3).
func (in *Inspector) DFG() *dfg.Graph {
	return dfg.Build(in.ActivityLog())
}

// Stats computes the Section IV-B statistics (Figure 6, step 4).
func (in *Inspector) Stats() *stats.Stats {
	return stats.Compute(in.log, in.mapping)
}

// Behavior derives the behavior profile of the event-log: per case and
// merged, the files opened/read/written/deleted/renamed, the commands
// executed and the network endpoints contacted. It is the in-memory
// twin of StreamResult.Behavior and byte-identical to it for the same
// log.
func (in *Inspector) Behavior() *behavior.Profile {
	return behavior.FromLog(in.log)
}

// Timeline returns the Figure 5 interval data of one activity.
func (in *Inspector) Timeline(a pm.Activity) []trace.Interval {
	return stats.Timeline(in.log, in.mapping, a)
}

// Distribution returns the duration distribution of one activity,
// separating bandwidth-bound from contention-bound behaviour.
func (in *Inspector) Distribution(a pm.Activity) (stats.Distribution, bool) {
	return stats.ComputeDistribution(in.log, in.mapping, a)
}

// PerCase returns the per-process contribution to an activity (all
// activities when a is empty), slowest first — the straggler view.
func (in *Inspector) PerCase(a pm.Activity) []stats.CaseSummary {
	return stats.PerCase(in.log, in.mapping, a)
}

// RegroupByPID re-derives cases at process granularity (Section IV's
// SMT/OpenMP remark) and returns a new inspector over the regrouped log.
func (in *Inspector) RegroupByPID() *Inspector {
	return &Inspector{log: in.log.RegroupByPID(), mapping: in.mapping}
}

// Footprint derives the activity-relation matrix of the DFG, a compact
// structural summary whose cell-wise diff localizes behavioural changes
// between configurations.
func (in *Inspector) Footprint() *dfg.Footprint {
	return dfg.NewFootprint(in.DFG())
}

// Partition splits the event-log into mutually exclusive G and R subsets
// by a case predicate and classifies the full DFG's nodes and edges
// (Section IV-C, partition-based coloring). It returns the full graph and
// the classification.
func (in *Inspector) Partition(green func(*trace.Case) bool) (*dfg.Graph, *dfg.Partition) {
	g, r := in.log.Partition(green)
	full := in.DFG()
	gg := (&Inspector{log: g, mapping: in.mapping}).DFG()
	rg := (&Inspector{log: r, mapping: in.mapping}).DFG()
	return full, dfg.Classify(full, gg, rg)
}

// PartitionByCID partitions by command identifier, as in Equation (18).
func (in *Inspector) PartitionByCID(greenCIDs ...string) (*dfg.Graph, *dfg.Partition) {
	set := make(map[string]bool, len(greenCIDs))
	for _, c := range greenCIDs {
		set[c] = true
	}
	return in.Partition(func(c *trace.Case) bool { return set[c.ID.CID] })
}

// RenderDOT renders the DFG as a Graphviz document with the given styler
// (Figure 6, step 5). A nil styler renders uncolored.
func (in *Inspector) RenderDOT(styler render.Styler) string {
	return render.RenderDOT(in.DFG(), in.Stats(), styler)
}

// RenderText renders the DFG as a deterministic text listing.
func (in *Inspector) RenderText() string {
	return render.RenderText(in.DFG(), in.Stats(), nil)
}

// Summary returns a one-line description of the inspector's contents.
func (in *Inspector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cases, %d events, calls: %s",
		in.log.NumCases(), in.log.NumEvents(), strings.Join(in.log.CallNames(), ","))
	return b.String()
}
