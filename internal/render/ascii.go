package render

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
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
	_, err := w.Write(t.appendTo(nil))
	return err
}

// appendTo appends the listing to b in one pass over the graph.
func (t *Text) appendTo(b []byte) []byte {
	skip := func(a pm.Activity) bool {
		if a.IsVirtual() || len(t.SkipCalls) == 0 {
			return false
		}
		call, _ := a.Parts()
		return t.SkipCalls[call]
	}
	nodes := t.Graph.Nodes()
	// Edges() orders by from-node in the same node order Nodes() uses,
	// then by to-node, and every edge leaves a node of the graph: each
	// node's out-edges, in to-node order, are the next run of the one
	// list.
	edges := t.Graph.Edges()
	// Size the buffer once: a node line is its name plus at most about
	// 90 bytes of annotations, an edge line its target plus about 30.
	size := 0
	for _, a := range nodes {
		size += len(a) + 96
	}
	for _, e := range edges {
		size += len(e.To) + 32
	}
	b = slices.Grow(b, size)
	for _, a := range nodes {
		n := 0
		for n < len(edges) && edges[n].From == a {
			n++
		}
		out := edges[:n]
		edges = edges[n:]
		if skip(a) {
			continue
		}
		b = append(t.appendNode(b, a), '\n')
		for _, e := range out {
			if skip(e.To) {
				continue
			}
			b = strconv.AppendInt(append(b, "  --"...), int64(t.Graph.EdgeCount(e)), 10)
			b = append(append(b, "--> "...), e.To...)
			if t.Partition != nil {
				if c := t.Partition.Edge(e); c != dfg.Shared {
					b = append(append(append(b, " ["...), c.String()...), ']')
				}
			}
			b = append(b, '\n')
		}
	}
	return b
}

// appendNode appends a node's line without its newline: the activity,
// then its annotations, each after two spaces.
func (t *Text) appendNode(b []byte, a pm.Activity) []byte {
	b = append(b, a...)
	if t.Stats != nil && !a.IsVirtual() {
		if st := t.Stats.Get(a); st != nil {
			b = appendLoad(append(b, "  "...), st.RelDur, st.Bytes, st.HasBytes)
			if st.HasBytes {
				b = appendDR(append(b, "  "...), st.MaxConc, st.ProcRate)
			}
			b = strconv.AppendInt(append(b, "  events="...), int64(st.Events), 10)
		}
	}
	if t.Partition != nil && !a.IsVirtual() {
		if c := t.Partition.Node(a); c != dfg.Shared {
			b = append(append(append(b, "  ["...), c.String()...), ']')
		}
	}
	return b
}

// RenderText renders the graph as text with optional annotations; a nil
// graph renders as the empty string.
func RenderText(g *dfg.Graph, s *stats.Stats, p *dfg.Partition) string {
	if g == nil {
		return ""
	}
	t := &Text{Graph: g, Stats: s, Partition: p}
	return string(t.appendTo(nil))
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
			rate = formatRateMBs(r.st.ProcRate)
		}
		fmt.Fprintf(&b, "%-44s %8d %8.3f %12s %6d %14s\n",
			r.act, r.st.Events, r.st.RelDur, bytes, r.st.MaxConc, rate)
	}
	return b.String()
}
