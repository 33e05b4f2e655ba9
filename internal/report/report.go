// Package report composes the individual analyses of this library into a
// single textual I/O report, in the spirit of Darshan's per-job summary
// reports mentioned in the paper's related work (Section II): an overview
// of the event-log, the DFG with statistics, the per-activity hot spots
// with duration distributions, the straggler processes, and — when a
// partition is given — the configuration comparison. A report reads one
// pass over the cases: the analysis fold's StreamResult and the
// stats.Detail filled from the same cases. Its overview totals the
// events the mapping maps, which under the mappings stinspect offers
// are all of them.
package report

import (
	"cmp"
	"fmt"
	"html/template"
	"io"
	"slices"
	"sort"
	"strings"

	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
)

// Options configures report generation.
type Options struct {
	// Title heads the report.
	Title string
	// GreenCIDs, when non-empty, adds the partition-comparison section
	// with the given command ids as the green subset.
	GreenCIDs []string
	// Timeline, when set, adds the timeline of that activity.
	Timeline pm.Activity
}

// summary is what both renderings of a report show, formatted.
type summary struct {
	Title                string
	Cases, Events        int
	Calls, Bytes, IOTime string
	Activities           []actRow
	Omitted              int // activities ranked but not shown
	CaseRows             []caseRow
	part                 *dfg.Partition
	gn, rn, sn           int // the partition's node counts

	// HTML only.
	Mermaid, PartNote string
	Timeline          template.HTML
}

// actRow is one hot activity; DR is empty for an activity moving no
// bytes, and P50, P99 and Tail for one without events.
type actRow struct {
	Activity, Load, DR string
	Events             int
	P50, P99, Tail     string
}

type caseRow struct {
	Case       string
	Events     int
	Dur, Bytes string
}

// summarize formats the sections both renderings share, showing at
// most top activities and top cases.
func summarize(res *core.StreamResult, d *stats.Detail, opts Options, top int) *summary {
	s := &summary{
		Title:  cmp.Or(opts.Title, "I/O inspection report"),
		Cases:  res.Cases,
		Events: res.Events,
		Calls:  strings.Join(res.Stats.Calls(), ", "),
		IOTime: render.FormatDuration(res.Stats.TotalDur),
	}
	acts := res.Stats.Activities()
	var bytes int64
	for _, a := range acts {
		bytes += res.Stats.Get(a).Bytes
	}
	s.Bytes = render.FormatBytes(bytes)

	// The activities ranked by relative duration, ties in name order;
	// only the rows shown get a distribution.
	sort.SliceStable(acts, func(i, j int) bool {
		return res.Stats.Get(acts[i]).RelDur > res.Stats.Get(acts[j]).RelDur
	})
	n := min(top, len(acts))
	s.Omitted = len(acts) - n
	for _, a := range acts[:n] {
		st := res.Stats.Get(a)
		r := actRow{Activity: string(a), Load: render.FormatLoad(st.RelDur, st.Bytes, st.HasBytes), Events: st.Events}
		if st.HasBytes {
			r.DR = render.FormatDR(st.MaxConc, st.ProcRate)
		}
		if dist, ok := d.Distribution(a); ok {
			r.P50, r.P99 = render.FormatDuration(dist.P50), render.FormatDuration(dist.P99)
			r.Tail = fmt.Sprintf("%.0f%%", dist.TailShare*100)
		}
		s.Activities = append(s.Activities, r)
	}

	per := d.PerCase("")
	for _, c := range per[:min(top, len(per))] {
		s.CaseRows = append(s.CaseRows, caseRow{
			Case:   c.Case.String(),
			Events: c.Events,
			Dur:    render.FormatDuration(c.TotalDur),
			Bytes:  render.FormatBytes(c.Bytes),
		})
	}

	// Equation 18: the fold's DFG classified against the split of its
	// activity-log into the green CIDs' cases and the rest.
	if len(opts.GreenCIDs) > 0 {
		g, r := dfg.Split(res.ActivityLog, func(id trace.CaseID) bool { return slices.Contains(opts.GreenCIDs, id.CID) })
		s.part = dfg.Classify(res.DFG, g, r)
		s.gn, s.rn, s.sn = s.part.CountNodes()
	}
	return s
}

// Generate writes the text report for a fold's artifacts and the detail
// fold of the same cases under the same mapping. It shows the 8 hottest
// activities and the 8 slowest cases.
func Generate(w io.Writer, res *core.StreamResult, d *stats.Detail, opts Options) error {
	s := summarize(res, d, opts, 8)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", s.Title, strings.Repeat("=", len(s.Title)))

	// 1. Overview.
	fmt.Fprintf(&b, "Overview\n--------\n")
	fmt.Fprintf(&b, "cases:        %d\n", s.Cases)
	fmt.Fprintf(&b, "events:       %d\n", s.Events)
	fmt.Fprintf(&b, "calls:        %s\n", s.Calls)
	fmt.Fprintf(&b, "bytes moved:  %s\n", s.Bytes)
	fmt.Fprintf(&b, "I/O time:     %s (sum over all system calls)\n\n", s.IOTime)

	// 2. Hot activities.
	fmt.Fprintf(&b, "Hot activities (by relative duration)\n-------------------------------------\n")
	for _, r := range s.Activities {
		fmt.Fprintf(&b, "%-44s %s", r.Activity, r.Load)
		if r.DR != "" {
			fmt.Fprintf(&b, "  %s", r.DR)
		}
		if r.P50 != "" {
			fmt.Fprintf(&b, "  p50=%s p99=%s tail=%s", r.P50, r.P99, r.Tail)
		}
		b.WriteByte('\n')
	}
	if s.Omitted > 0 {
		fmt.Fprintf(&b, "(%d further activities omitted)\n", s.Omitted)
	}
	b.WriteByte('\n')

	// 3. Stragglers.
	fmt.Fprintf(&b, "Slowest processes\n-----------------\n")
	for _, c := range s.CaseRows {
		fmt.Fprintf(&b, "%-28s %6d events  %12s  %12s\n", c.Case, c.Events, c.Dur, c.Bytes)
	}
	b.WriteByte('\n')

	// 4. The DFG.
	fmt.Fprintf(&b, "Directly-Follows-Graph\n----------------------\n")
	if s.part != nil {
		fmt.Fprintf(&b, "partition: green = {%s}: %d green / %d red / %d shared nodes\n\n",
			strings.Join(opts.GreenCIDs, ","), s.gn, s.rn, s.sn)
	}
	b.WriteString(render.RenderText(res.DFG, res.Stats, s.part))
	b.WriteByte('\n')

	// 5. Optional timeline.
	if a := opts.Timeline; a != "" {
		fmt.Fprintf(&b, "Timeline of %s\n", a)
		fmt.Fprintf(&b, "%s\n", strings.Repeat("-", len("Timeline of ")+len(a)))
		b.WriteString(render.RenderTimeline(d.Timeline(a)))
		b.WriteByte('\n')
	}

	_, err := io.WriteString(w, b.String())
	return err
}
