// Package core implements the paper's primary contribution as a pipeline
// facade: loading event-logs (from strace directories, or from any case
// source such as an STA archive drained by source.Drain), querying them
// with file-path filters, abstracting events into activities with a
// mapping, synthesizing the Directly-Follows-Graph, computing the
// activity statistics, and applying the two coloring strategies. An
// Inspector runs the one analysis fold (stream.go) over its event-log
// on its first artifact query, and the one detail fold (stats.Detail)
// on its first timeline query. The partition-based coloring (Equation
// 18) needs only the activity-log: PartitionByCID
// splits it into the G and R graphs with dfg.Split, and so does a
// consumer of the streaming fold's StreamResult.ActivityLog, which never
// holds the event-log. It mirrors the st_inspector workflow of Figure 6:
//
//	insp, _ := core.FromStraceDir("traces/", strace.Options{})           // 0
//	insp = insp.FilterPath("/usr/lib")                                   // 1
//	insp = insp.WithMapping(pm.CallTopDirs{Depth: 2})                    // 2
//	g := insp.DFG()                                                      // 3
//	st := insp.Stats()                                                   // 4
//	dot := render.RenderDOT(g, st, render.StatisticsColoring{Stats: st}) // 5
package core

import (
	"fmt"
	"strings"
	"sync"

	"stinspector/internal/behavior"
	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// Inspector holds an event-log and the mapping under which it is
// synthesized. Inspectors are immutable: filters and mapping changes
// return derived inspectors, so several views of one log can coexist.
// The first artifact query folds the log once; every query, from any
// goroutine, reads that result, so the artifacts returned are shared
// and read-only (no Merge into them, no AddNode or AddEdge). The first
// Timeline query likewise folds the log once into a stats.Detail that
// every later one reads. A derived inspector folds its own log afresh.
type Inspector struct {
	log     *trace.EventLog
	mapping pm.Mapping

	once sync.Once
	res  *StreamResult

	detailOnce sync.Once
	det        *stats.Detail
}

// result runs the inspector's fold once and returns its artifacts.
func (in *Inspector) result() *StreamResult {
	in.once.Do(func() { in.res = foldLog(in.log, in.mapping) })
	return in.res
}

// detail runs the inspector's detail fold once and returns it.
func (in *Inspector) detail() *stats.Detail {
	in.detailOnce.Do(func() {
		d := stats.NewDetail(in.mapping)
		for _, c := range in.log.Cases() {
			d.Add(c)
		}
		in.det = d
	})
	return in.det
}

// FromEventLog wraps an existing event-log with the default mapping f̂
// (call + top two directory levels, Equation 4).
func FromEventLog(el *trace.EventLog) *Inspector {
	return &Inspector{log: el, mapping: pm.CallTopDirs{Depth: 2}}
}

// FromStraceDir parses every *.st file under dir (Figure 1's recording
// convention) into an event-log. Files are parsed concurrently under
// opts.Parallelism (default GOMAXPROCS) with a deterministic merge.
// Without opts.Strict the error reported is the one of the first
// failing file in case order; with it every file is parsed and all
// failures are joined into one error.
func FromStraceDir(dir string, opts strace.Options) (*Inspector, error) {
	src, err := strace.StreamDir(dir, opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	el, err := source.Drain(src, opts.Strict)
	if err != nil {
		return nil, err
	}
	return FromEventLog(el), nil
}

// EventLog exposes the underlying event-log.
func (in *Inspector) EventLog() *trace.EventLog { return in.log }

// FilterPath is the paper's apply_fp_filter (Figure 6, step 1): it
// derives an inspector restricted to events whose file path contains the
// substring.
func (in *Inspector) FilterPath(substr string) *Inspector {
	return &Inspector{log: in.log.FilterPath(substr), mapping: in.mapping}
}

// WithMapping is apply_mapping_fn (Figure 6, step 2): it derives an
// inspector using the given event-to-activity mapping.
func (in *Inspector) WithMapping(m pm.Mapping) *Inspector {
	return &Inspector{log: in.log, mapping: m}
}

// ActivityLog builds L_f(C) with the virtual start/end activities
// appended.
func (in *Inspector) ActivityLog() *pm.Log { return in.result().ActivityLog }

// DFG synthesizes G[L_f(C)] (Figure 6, step 3).
func (in *Inspector) DFG() *dfg.Graph { return in.result().DFG }

// Stats computes the Section IV-B statistics (Figure 6, step 4).
func (in *Inspector) Stats() *stats.Stats { return in.result().Stats }

// Behavior derives the behavior profile of the event-log: per case and
// merged, the files opened/read/written/deleted/renamed, the commands
// executed and the network endpoints contacted. It is
// StreamResult.Behavior of the inspector's fold.
func (in *Inspector) Behavior() *behavior.Profile { return in.result().Behavior }

// Timeline returns the Figure 5 interval data of one activity.
func (in *Inspector) Timeline(a pm.Activity) []trace.Interval {
	return in.detail().Timeline(a)
}

// PartitionByCID compares configurations by command identifier, as in
// Equation (18) (Section IV-C, partition-based coloring): the cases of
// the given CIDs form the G subset and the rest R. Both subset DFGs are
// split from the inspector's activity-log, and the full graph's nodes
// and edges are classified against them. It returns the full graph and
// the classification.
func (in *Inspector) PartitionByCID(greenCIDs ...string) (*dfg.Graph, *dfg.Partition) {
	set := make(map[string]bool, len(greenCIDs))
	for _, c := range greenCIDs {
		set[c] = true
	}
	full := in.DFG()
	g, r := dfg.Split(in.ActivityLog(), func(id trace.CaseID) bool { return set[id.CID] })
	return full, dfg.Classify(full, g, r)
}

// Summary returns a one-line description of the inspector's contents.
func (in *Inspector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cases, %d events, calls: %s",
		in.log.NumCases(), in.log.NumEvents(), strings.Join(in.log.CallNames(), ","))
	return b.String()
}
