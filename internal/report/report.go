// Package report composes the individual analyses of this library into a
// single textual I/O report, in the spirit of Darshan's per-job summary
// reports mentioned in the paper's related work (Section II): an overview
// of the event-log, the DFG with statistics, the per-activity hot spots
// with duration distributions, the straggler processes, and — when a
// partition is given — the configuration comparison.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/stats"
)

// Options configures report generation.
type Options struct {
	// Title heads the report.
	Title string
	// TopActivities bounds the hot-spot section (default 8).
	TopActivities int
	// TopCases bounds the straggler section (default 8).
	TopCases int
	// GreenCIDs, when non-empty, adds the partition-comparison section
	// with the given command ids as the green subset.
	GreenCIDs []string
	// Timelines adds an ASCII timeline for each listed activity.
	Timelines []pm.Activity
}

// Generate writes the report for an inspector's event-log and mapping.
func Generate(w io.Writer, in *core.Inspector, opts Options) error {
	if opts.TopActivities <= 0 {
		opts.TopActivities = 8
	}
	if opts.TopCases <= 0 {
		opts.TopCases = 8
	}
	var b strings.Builder

	title := opts.Title
	if title == "" {
		title = "I/O inspection report"
	}
	rule := strings.Repeat("=", len(title))
	fmt.Fprintf(&b, "%s\n%s\n\n", title, rule)

	// 1. Overview.
	el := in.EventLog()
	fmt.Fprintf(&b, "Overview\n--------\n")
	fmt.Fprintf(&b, "cases:        %d\n", el.NumCases())
	fmt.Fprintf(&b, "events:       %d\n", el.NumEvents())
	fmt.Fprintf(&b, "calls:        %s\n", strings.Join(el.CallNames(), ", "))
	fmt.Fprintf(&b, "bytes moved:  %s\n", render.FormatBytes(el.TotalBytes()))
	fmt.Fprintf(&b, "I/O time:     %s (sum over all system calls)\n\n",
		render.FormatDuration(time.Duration(el.TotalDur())))

	// 2. Hot activities.
	st := in.Stats()
	fmt.Fprintf(&b, "Hot activities (by relative duration)\n-------------------------------------\n")
	shown, total := hotActivities(in, st, opts.TopActivities)
	for _, r := range shown {
		fmt.Fprintf(&b, "%-44s %s", r.a, render.FormatLoad(r.st.RelDur, r.st.Bytes, r.st.HasBytes))
		if r.st.HasBytes {
			fmt.Fprintf(&b, "  %s", render.FormatDR(r.st.MaxConc, r.st.ProcRate))
		}
		if r.hasDist {
			fmt.Fprintf(&b, "  p50=%s p99=%s tail=%.0f%%",
				render.FormatDuration(r.dist.P50), render.FormatDuration(r.dist.P99), r.dist.TailShare*100)
		}
		b.WriteByte('\n')
	}
	if total > len(shown) {
		fmt.Fprintf(&b, "(%d further activities omitted)\n", total-len(shown))
	}
	b.WriteByte('\n')

	// 3. Stragglers.
	fmt.Fprintf(&b, "Slowest processes\n-----------------\n")
	per := in.PerCase("")
	if len(per) > opts.TopCases {
		per = per[:opts.TopCases]
	}
	for _, c := range per {
		fmt.Fprintf(&b, "%-28s %6d events  %12s  %12s\n",
			c.Case, c.Events, render.FormatDuration(c.TotalDur), render.FormatBytes(c.Bytes))
	}
	b.WriteByte('\n')

	// 4. The DFG.
	fmt.Fprintf(&b, "Directly-Follows-Graph\n----------------------\n")
	var part *dfg.Partition
	var full *dfg.Graph
	if len(opts.GreenCIDs) > 0 {
		full, part = in.PartitionByCID(opts.GreenCIDs...)
		gn, rn, sn := part.CountNodes()
		fmt.Fprintf(&b, "partition: green = {%s}: %d green / %d red / %d shared nodes\n\n",
			strings.Join(opts.GreenCIDs, ","), gn, rn, sn)
	} else {
		full = in.DFG()
	}
	b.WriteString(render.RenderText(full, st, part))
	b.WriteByte('\n')

	// 5. Optional timelines.
	for _, a := range opts.Timelines {
		fmt.Fprintf(&b, "Timeline of %s\n", a)
		fmt.Fprintf(&b, "%s\n", strings.Repeat("-", len("Timeline of ")+len(a)))
		b.WriteString(render.RenderTimeline(in.Timeline(a)))
		b.WriteByte('\n')
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// hotRow is one activity of the hot-spot section with its duration
// distribution (hasDist is false for an activity without events).
type hotRow struct {
	a       pm.Activity
	st      *stats.ActivityStats
	dist    stats.Distribution
	hasDist bool
}

// hotActivities ranks the activities by relative duration (ties by
// name), keeps the top n and returns them with the number ranked. Each
// distribution is a scan of the whole event-log, so only the rows kept
// get one.
func hotActivities(in *core.Inspector, st *stats.Stats, n int) ([]hotRow, int) {
	acts := st.Activities()
	rows := make([]hotRow, len(acts))
	for i, a := range acts {
		rows[i] = hotRow{a: a, st: st.Get(a)}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].st.RelDur != rows[j].st.RelDur {
			return rows[i].st.RelDur > rows[j].st.RelDur
		}
		return rows[i].a < rows[j].a
	})
	shown := rows[:min(n, len(rows))]
	for i := range shown {
		shown[i].dist, shown[i].hasDist = in.Distribution(shown[i].a)
	}
	return shown, len(rows)
}
