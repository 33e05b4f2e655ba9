package dfg

import (
	"reflect"
	"strings"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

func TestFilterCounts(t *testing.T) {
	g := buildGraph(t, trace.MustUnion(logA(t), logB(t)))
	// Keep only elements observed ≥ 6 times.
	f := g.FilterCounts(6, 6)
	if !f.HasNode(pm.Start) || !f.HasNode(pm.End) {
		t.Errorf("virtual endpoints dropped")
	}
	// read:/etc/passwd occurs 3 times — dropped.
	if f.HasNode("read:/etc/passwd") {
		t.Errorf("infrequent node kept")
	}
	// read:/usr/lib occurs 18 times — kept, with original count.
	if f.NodeCount("read:/usr/lib") != 18 {
		t.Errorf("kept node count = %d", f.NodeCount("read:/usr/lib"))
	}
	// Edges into dropped nodes are gone.
	for _, e := range f.Edges() {
		if !f.HasNode(e.From) || !f.HasNode(e.To) {
			t.Errorf("dangling edge %s", e)
		}
		if f.EdgeCount(e) < 6 {
			t.Errorf("infrequent edge kept: %s = %d", e, f.EdgeCount(e))
		}
	}
	// Original untouched.
	if !g.HasNode("read:/etc/passwd") {
		t.Errorf("FilterCounts mutated the receiver")
	}
}

func TestProject(t *testing.T) {
	g := buildGraph(t, logA(t))
	p := g.Project(func(a pm.Activity) bool {
		call, _ := a.Parts()
		return call == "read"
	})
	if p.HasNode("write:/dev/pts") {
		t.Errorf("projection kept excluded node")
	}
	if !p.HasNode("read:/usr/lib") {
		t.Errorf("projection dropped included node")
	}
	if p.HasEdge(Edge{From: "read:/etc/locale.alias", To: "write:/dev/pts"}) {
		t.Errorf("projection kept edge to excluded node")
	}
	if !p.HasEdge(Edge{From: "read:/usr/lib", To: "read:/proc/filesystems"}) {
		t.Errorf("projection dropped internal edge")
	}
}

// TestUnionGraphs: the DFG of a union event-log is the Merge of the
// subset DFGs, and merging nil changes nothing.
func TestUnionGraphs(t *testing.T) {
	la, lb := logA(t), logB(t)
	ga, gb := buildGraph(t, la), buildGraph(t, lb)
	direct := buildGraph(t, trace.MustUnion(la, lb))
	union := New()
	union.Merge(ga)
	union.Merge(gb)
	if !union.Equal(direct) {
		t.Errorf("merged graphs differ from DFG of union log:\n%s\nvs\n%s", union, direct)
	}
	if ga.Merge(nil); !ga.Equal(buildGraph(t, la)) {
		t.Errorf("nil operand mishandled")
	}
}

func TestTopEdges(t *testing.T) {
	g := buildGraph(t, logA(t))
	top := g.TopEdges(1)
	if len(top) != 1 {
		t.Fatalf("top = %v", top)
	}
	// The self-edge of read:/usr/lib has count 6, the maximum.
	want := Edge{From: "read:/usr/lib", To: "read:/usr/lib"}
	if top[0] != want {
		t.Errorf("top edge = %v (count %d), want %v", top[0], g.EdgeCount(top[0]), want)
	}
	if got := g.TopEdges(1000); len(got) != g.NumEdges() {
		t.Errorf("TopEdges over-asked = %d", len(got))
	}
}

func TestSelfLoops(t *testing.T) {
	g := buildGraph(t, logA(t))
	loops := g.SelfLoops()
	want := map[pm.Activity]int{
		"read:/usr/lib":          6,
		"read:/proc/filesystems": 3,
		"read:/etc/locale.alias": 3,
	}
	if !reflect.DeepEqual(loops, want) {
		t.Errorf("SelfLoops = %v, want %v", loops, want)
	}
}

func TestDominantPath(t *testing.T) {
	g := buildGraph(t, logA(t))
	path := g.DominantPath()
	var names []string
	for _, a := range path {
		names = append(names, string(a))
	}
	got := strings.Join(names, " → ")
	want := strings.Join([]string{
		string(pm.Start), "read:/usr/lib", "read:/proc/filesystems",
		"read:/etc/locale.alias", "write:/dev/pts", string(pm.End),
	}, " → ")
	if got != want {
		t.Errorf("dominant path = %s\nwant %s", got, want)
	}
}

func TestDominantPathTerminates(t *testing.T) {
	// A cyclic graph without reachable end must not loop forever.
	g := New()
	g.AddEdge(Edge{From: pm.Start, To: "a"}, 5)
	g.AddEdge(Edge{From: "a", To: "b"}, 5)
	g.AddEdge(Edge{From: "b", To: "a"}, 5)
	path := g.DominantPath()
	if len(path) == 0 || len(path) > 5 {
		t.Errorf("path = %v", path)
	}
}
