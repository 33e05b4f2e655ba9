package render

import (
	"errors"
	"strings"
	"testing"
	"time"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

// failWriter fails after n successful writes, driving the writer-error
// branches of every renderer.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink full")
	}
	w.n--
	return len(p), nil
}

// TestRendererNilGraph: every DFG renderer must reject a nil graph with
// an error, never panic.
func TestRendererNilGraph(t *testing.T) {
	render := map[string]func() error{
		"dot":     func() error { return (&DOT{}).Render(&strings.Builder{}) },
		"text":    func() error { return (&Text{}).Render(&strings.Builder{}) },
		"mermaid": func() error { return (&mermaid{}).Render(&strings.Builder{}) },
	}
	for name, fn := range render {
		err := fn()
		if err == nil || !strings.Contains(err.Error(), "nil graph") {
			t.Errorf("%s: want 'nil graph' error, got %v", name, err)
		}
	}
}

// TestRendererWriterError: a failing sink must surface as the render
// error (not be swallowed) in every renderer that writes directly.
func TestRendererWriterError(t *testing.T) {
	g := dfg.Build(&pm.Log{})
	g.AddEdge(dfg.Edge{From: "read:/a", To: "write:/b"}, 1)
	cases := map[string]func(*failWriter) error{
		"dot":     func(w *failWriter) error { return (&DOT{Graph: g}).Render(w) },
		"text":    func(w *failWriter) error { return (&Text{Graph: g}).Render(w) },
		"mermaid": func(w *failWriter) error { return (&mermaid{Graph: g}).Render(w) },
		"timeline": func(w *failWriter) error {
			return (&timelinePlot{}).Render(w, []trace.Interval{{Start: 0, End: time.Second}})
		},
		"timeline-empty": func(w *failWriter) error {
			return (&timelinePlot{}).Render(w, nil)
		},
		"svg": func(w *failWriter) error {
			return (&timelineSVG{}).Render(w, []trace.Interval{{Start: 0, End: time.Second}})
		},
	}
	for name, fn := range cases {
		if err := fn(&failWriter{}); err == nil {
			t.Errorf("%s: writer failure not propagated", name)
		}
	}
}

// TestRenderEmptyLog pins the renderers' behavior on the DFG of an
// empty activity-log (zero nodes, zero edges): structurally valid,
// deterministic documents rather than errors.
func TestRenderEmptyLog(t *testing.T) {
	empty := dfg.Build(pm.NewBuilderSym(pm.NewSymMapper(pm.CallTopDirs{Depth: 2}), pm.BuildOptions{Endpoints: true}).Finalize())
	if empty.NumNodes() != 0 || empty.NumEdges() != 0 {
		t.Fatalf("empty log built %d nodes / %d edges", empty.NumNodes(), empty.NumEdges())
	}

	dot := RenderDOT(empty, nil, nil)
	for _, want := range []string{"digraph \"dfg\" {", "}\n"} {
		if !strings.Contains(dot, want) {
			t.Errorf("empty DOT missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, "label=") {
		t.Errorf("empty DOT contains nodes:\n%s", dot)
	}
	if got := RenderText(empty, nil, nil); got != "" {
		t.Errorf("empty text render = %q, want empty", got)
	}
	if got := RenderMermaid(empty, nil, nil); got != "flowchart TB\n" {
		t.Errorf("empty mermaid render = %q", got)
	}
	if got := RenderTimeline(nil); got != "(no events)\n" {
		t.Errorf("empty timeline = %q", got)
	}
	svg := RenderTimelineSVG(nil, "t")
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Errorf("empty timeline SVG malformed:\n%s", svg)
	}
}

// TestRenderMalformedDFG pins behavior on graphs that violate the
// well-formed-pipeline invariants: isolated zero-count nodes, edges
// whose endpoints were never seen as activities, self-loops, and
// SkipCalls configurations that skip every edge endpoint. All must
// render deterministically without panicking or emitting dangling
// references.
func TestRenderMalformedDFG(t *testing.T) {
	tests := []struct {
		name  string
		build func() *dfg.Graph
		skip  map[string]bool
		check func(t *testing.T, dot, text string)
	}{
		{
			name: "isolated zero-count node",
			build: func() *dfg.Graph {
				g := dfg.Build(&pm.Log{})
				g.AddNode("read:/a", 0)
				return g
			},
			check: func(t *testing.T, dot, text string) {
				if !strings.Contains(dot, `label="read\n/a"`) {
					t.Errorf("isolated node dropped from DOT:\n%s", dot)
				}
			},
		},
		{
			name: "edge creates endpoints",
			build: func() *dfg.Graph {
				g := dfg.Build(&pm.Log{})
				g.AddEdge(dfg.Edge{From: "a:/x", To: "b:/y"}, 3)
				return g
			},
			check: func(t *testing.T, dot, text string) {
				if !strings.Contains(text, "--3-->") {
					t.Errorf("edge count missing from text:\n%s", text)
				}
			},
		},
		{
			name: "self-loop",
			build: func() *dfg.Graph {
				g := dfg.Build(&pm.Log{})
				g.AddEdge(dfg.Edge{From: "read:/a", To: "read:/a"}, 2)
				return g
			},
			check: func(t *testing.T, dot, text string) {
				if !strings.Contains(dot, "n0 -> n0") {
					t.Errorf("self-loop missing from DOT:\n%s", dot)
				}
			},
		},
		{
			name: "all endpoints skipped",
			build: func() *dfg.Graph {
				g := dfg.Build(&pm.Log{})
				g.AddEdge(dfg.Edge{From: "read:/a", To: "write:/b"}, 1)
				g.AddNode(pm.Start, 1)
				return g
			},
			skip: map[string]bool{"read": true, "write": true},
			check: func(t *testing.T, dot, text string) {
				if strings.Contains(dot, "->") {
					t.Errorf("edge to skipped endpoint survived:\n%s", dot)
				}
				if !strings.Contains(dot, string(pm.Start)) {
					t.Errorf("virtual node must never be skipped:\n%s", dot)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			var dotB, textB strings.Builder
			if err := (&DOT{Graph: g, SkipCalls: tc.skip}).Render(&dotB); err != nil {
				t.Fatalf("DOT render: %v", err)
			}
			if err := (&Text{Graph: g, SkipCalls: tc.skip}).Render(&textB); err != nil {
				t.Fatalf("text render: %v", err)
			}
			tc.check(t, dotB.String(), textB.String())
		})
	}
}
