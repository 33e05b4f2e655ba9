package render

import (
	"fmt"
	"io"
	"strings"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
)

// DOT renders a DFG as a Graphviz document. Node labels follow the
// semantics of Figure 3a:
//
//	<CALL_NAME>
//	<DIRECTORY_PATH>
//	Load: <RELATIVE_DUR>/<BYTES_MOVED>
//	DR: <MAX_CONC> x <PROCESS_DATA_RATE>
//
// Edge labels carry the directly-follows observation counts. Stats may be
// nil, in which case only the call/path lines appear. Styler may be nil
// for no coloring.
type DOT struct {
	Graph  *dfg.Graph
	Stats  *stats.Stats
	Styler Styler
	// SkipCalls omits activities whose call component matches, the way
	// Figure 9 "skips the rendering of openat calls as it does not
	// highlight useful differences". Virtual endpoints are never
	// skipped.
	SkipCalls map[string]bool
}

// Render writes the DOT document.
func (d *DOT) Render(w io.Writer) error {
	if d.Graph == nil {
		return fmt.Errorf("render: nil graph")
	}
	styler := d.Styler
	if styler == nil {
		styler = plainStyle{}
	}
	var b strings.Builder
	b.WriteString("digraph \"dfg\" {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, style=\"rounded,filled\", fillcolor=\"#ffffff\", fontname=\"Helvetica\"];\n")
	b.WriteString("  edge [fontname=\"Helvetica\", fontsize=10];\n")

	skipped := d.skippedSet()
	ids := make(map[pm.Activity]string)
	for i, a := range d.Graph.Nodes() {
		if skipped[a] {
			continue
		}
		id := fmt.Sprintf("n%d", i)
		ids[a] = id
		fmt.Fprintf(&b, "  %s [label=%q", id, d.nodeLabel(a))
		if a.IsVirtual() {
			b.WriteString(", shape=circle, width=0.25, fixedsize=true")
		}
		style := styler.Node(a)
		if style.FillColor != "" {
			fmt.Fprintf(&b, ", fillcolor=%q", style.FillColor)
		}
		if style.FontColor != "" {
			fmt.Fprintf(&b, ", fontcolor=%q", style.FontColor)
		}
		if style.Border != "" {
			fmt.Fprintf(&b, ", color=%q", style.Border)
		}
		b.WriteString("];\n")
	}
	for _, e := range d.Graph.Edges() {
		from, okF := ids[e.From]
		to, okT := ids[e.To]
		if !okF || !okT {
			continue // endpoint skipped
		}
		fmt.Fprintf(&b, "  %s -> %s [label=%q", from, to, fmt.Sprintf("%d", d.Graph.EdgeCount(e)))
		style := styler.Edge(e)
		if style.Color != "" {
			fmt.Fprintf(&b, ", color=%q, fontcolor=%q", style.Color, style.Color)
		}
		if style.PenWidth > 0 {
			fmt.Fprintf(&b, ", penwidth=%.1f", style.PenWidth)
		}
		b.WriteString("];\n")
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func (d *DOT) skippedSet() map[pm.Activity]bool {
	out := make(map[pm.Activity]bool)
	if len(d.SkipCalls) == 0 {
		return out
	}
	for _, a := range d.Graph.Nodes() {
		if a.IsVirtual() {
			continue
		}
		call, _ := a.Parts()
		if d.SkipCalls[call] {
			out[a] = true
		}
	}
	return out
}

// nodeLabel builds the multi-line label of Figure 3a.
func (d *DOT) nodeLabel(a pm.Activity) string {
	if a.IsVirtual() {
		return string(a)
	}
	call, path := a.Parts()
	lines := []string{call}
	if path != "" {
		lines = append(lines, path)
	}
	if d.Stats != nil {
		if st := d.Stats.Get(a); st != nil {
			lines = append(lines, FormatLoad(st.RelDur, st.Bytes, st.HasBytes))
			if st.HasBytes {
				lines = append(lines, FormatDR(st.MaxConc, st.ProcRate))
			}
		}
	}
	return strings.Join(lines, "\n")
}

// RenderDOT is a convenience wrapper rendering a graph with optional
// statistics and styling to a string.
func RenderDOT(g *dfg.Graph, s *stats.Stats, styler Styler) string {
	var b strings.Builder
	d := &DOT{Graph: g, Stats: s, Styler: styler}
	// strings.Builder never fails.
	_ = d.Render(&b)
	return b.String()
}
