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

func TestMermaidSkipCalls(t *testing.T) {
	g, s, _ := tinyPipeline(t)
	var b strings.Builder
	m := &mermaid{Graph: g, Stats: s, SkipCalls: map[string]bool{"write": true}}
	if err := m.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "/dev/pts") {
		t.Errorf("skipped node rendered")
	}
}

func TestMermaidNilGraph(t *testing.T) {
	m := &mermaid{}
	if err := m.Render(&strings.Builder{}); err == nil {
		t.Errorf("nil graph accepted")
	}
}
