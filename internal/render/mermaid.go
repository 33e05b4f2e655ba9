package render

import (
	"fmt"
	"io"
	"strings"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
)

// mermaid renders a DFG as a Mermaid flowchart, the diagram dialect of
// GitHub/GitLab markdown — convenient for pasting analysis results into
// issues and documentation. Node labels and colorings mirror the DOT
// renderer.
type mermaid struct {
	Graph  *dfg.Graph
	Stats  *stats.Stats
	Styler Styler
}

// Render writes the flowchart.
func (m *mermaid) Render(w io.Writer) error {
	if m.Graph == nil {
		return fmt.Errorf("render: nil graph")
	}
	styler := m.Styler
	if styler == nil {
		styler = plainStyle{}
	}
	var b strings.Builder
	b.WriteString("flowchart TB\n")

	ids := make(map[pm.Activity]string)
	for i, a := range m.Graph.Nodes() {
		id := fmt.Sprintf("n%d", i)
		ids[a] = id
		if a.IsVirtual() {
			fmt.Fprintf(&b, "  %s((%q))\n", id, string(a))
			continue
		}
		fmt.Fprintf(&b, "  %s[%q]\n", id, m.label(a))
		if st := styler.Node(a); st.FillColor != "" {
			stroke := st.Border
			if stroke == "" {
				stroke = "#333333"
			}
			fmt.Fprintf(&b, "  style %s fill:%s,stroke:%s\n", id, st.FillColor, stroke)
		}
	}
	for _, e := range m.Graph.Edges() {
		from, okF := ids[e.From]
		to, okT := ids[e.To]
		if !okF || !okT {
			continue
		}
		fmt.Fprintf(&b, "  %s -->|%d| %s\n", from, m.Graph.EdgeCount(e), to)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// label builds the Figure 3a node annotation with Mermaid line breaks.
func (m *mermaid) label(a pm.Activity) string {
	call, path := a.Parts()
	lines := []string{call}
	if path != "" {
		lines = append(lines, path)
	}
	if m.Stats != nil {
		if st := m.Stats.Get(a); st != nil {
			lines = append(lines, FormatLoad(st.RelDur, st.Bytes, st.HasBytes))
			if st.HasBytes {
				lines = append(lines, FormatDR(st.MaxConc, st.ProcRate))
			}
		}
	}
	return strings.Join(lines, "<br/>")
}

// RenderMermaid renders a graph with optional statistics and styling.
func RenderMermaid(g *dfg.Graph, s *stats.Stats, styler Styler) string {
	var b strings.Builder
	m := &mermaid{Graph: g, Stats: s, Styler: styler}
	_ = m.Render(&b)
	return b.String()
}
