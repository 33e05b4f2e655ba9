package render

import (
	"strings"
	"testing"
)

func TestMermaidOutput(t *testing.T) {
	g, s, _ := tinyPipeline(t)
	out := RenderMermaid(g, s, StatisticsColoring{Stats: s})
	for _, want := range []string{
		"flowchart TB",
		"read<br/>/usr/lib",
		"write<br/>/dev/pts",
		"Load:",
		"-->|2|",
		"style ",
		"fill:#",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("mermaid missing %q:\n%s", want, out)
		}
	}
	// Deterministic.
	if out != RenderMermaid(g, s, StatisticsColoring{Stats: s}) {
		t.Errorf("mermaid output not deterministic")
	}
}

func TestMermaidNilGraph(t *testing.T) {
	m := &mermaid{}
	if err := m.Render(&strings.Builder{}); err == nil {
		t.Errorf("nil graph accepted")
	}
}
