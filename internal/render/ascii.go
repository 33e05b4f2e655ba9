package render

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
)

// Text renders a DFG as a deterministic plain-text listing: one block per
// node with its Figure 3a annotations and partition class, followed by
// its outgoing edges. This is the format the stbench experiment harness
// prints and the golden tests compare against.
type Text struct {
	Graph *dfg.Graph
	Stats *stats.Stats
	// Partition annotates nodes/edges with their green/red class when
	// set.
	Partition *dfg.Partition
	// SkipCalls omits activities by call name, as in Figure 9.
	SkipCalls map[string]bool
}

// Render writes the listing.
func (t *Text) Render(w io.Writer) error {
	if t.Graph == nil {
		return fmt.Errorf("render: nil graph")
	}
	skip := func(a pm.Activity) bool {
		if a.IsVirtual() || len(t.SkipCalls) == 0 {
			return false
		}
		call, _ := a.Parts()
		return t.SkipCalls[call]
	}
	var b strings.Builder
	// Edges() orders by from-node in the same node order Nodes() uses,
	// then by to-node as OutEdges does, and every edge leaves a node of
	// the graph: each node's out-edges are the next run of the one list.
	edges := t.Graph.Edges()
	for _, a := range t.Graph.Nodes() {
		n := 0
		for n < len(edges) && edges[n].From == a {
			n++
		}
		out := edges[:n]
		edges = edges[n:]
		if skip(a) {
			continue
		}
		b.WriteString(t.nodeLine(a))
		b.WriteByte('\n')
		for _, e := range out {
			if skip(e.To) {
				continue
			}
			cls := ""
			if t.Partition != nil {
				if c := t.Partition.Edge(e); c != dfg.Shared {
					cls = " [" + c.String() + "]"
				}
			}
			fmt.Fprintf(&b, "  --%d--> %s%s\n", t.Graph.EdgeCount(e), e.To, cls)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (t *Text) nodeLine(a pm.Activity) string {
	var parts []string
	parts = append(parts, string(a))
	if t.Stats != nil && !a.IsVirtual() {
		if st := t.Stats.Get(a); st != nil {
			parts = append(parts, FormatLoad(st.RelDur, st.Bytes, st.HasBytes))
			if st.HasBytes {
				parts = append(parts, FormatDR(st.MaxConc, st.ProcRate))
			}
			parts = append(parts, fmt.Sprintf("events=%d", st.Events))
		}
	}
	if t.Partition != nil && !a.IsVirtual() {
		if c := t.Partition.Node(a); c != dfg.Shared {
			parts = append(parts, "["+c.String()+"]")
		}
	}
	return strings.Join(parts, "  ")
}

// RenderText renders the graph as text with optional annotations.
func RenderText(g *dfg.Graph, s *stats.Stats, p *dfg.Partition) string {
	var b strings.Builder
	t := &Text{Graph: g, Stats: s, Partition: p}
	_ = t.Render(&b)
	return b.String()
}

// StatsTable renders the per-activity statistics as an aligned table
// sorted by descending relative duration, the tabular complement of the
// DFG figures.
func StatsTable(s *stats.Stats) string {
	type row struct {
		act pm.Activity
		st  *stats.ActivityStats
	}
	rows := make([]row, 0)
	for _, a := range s.Activities() {
		rows = append(rows, row{a, s.Get(a)})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].st.RelDur != rows[j].st.RelDur {
			return rows[i].st.RelDur > rows[j].st.RelDur
		}
		return rows[i].act < rows[j].act
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %8s %8s %12s %6s %14s\n", "ACTIVITY", "EVENTS", "RELDUR", "BYTES", "MAXC", "RATE")
	for _, r := range rows {
		bytes := "-"
		rate := "-"
		if r.st.HasBytes {
			bytes = FormatBytes(r.st.Bytes)
			rate = FormatRateMBs(r.st.ProcRate)
		}
		fmt.Fprintf(&b, "%-44s %8d %8.3f %12s %6d %14s\n",
			r.act, r.st.Events, r.st.RelDur, bytes, r.st.MaxConc, rate)
	}
	return b.String()
}
