// Package dfg constructs and compares Directly-Follows-Graphs.
//
// Given an activity-log L_f(C), the DFG G[L_f(C)] has the activities as
// nodes and an edge (a1, a2) if and only if some trace in the log has a1
// immediately preceding a2 (Definition 4 of van der Aalst's "Foundations
// of Process Discovery", as adopted in Section IV-A of the paper). Edge
// weights count how often the directly-follows relation was observed;
// node weights count activity occurrences. Construction is a single pass
// over the activity-log, O(n) in the number of events.
package dfg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"stinspector/internal/pm"
)

// Edge is a directed directly-follows relation between two activities.
type Edge struct {
	From, To pm.Activity
}

// String renders the edge as "a → b".
func (e Edge) String() string { return fmt.Sprintf("%s → %s", e.From, e.To) }

// Graph is a Directly-Follows-Graph with occurrence counts.
type Graph struct {
	nodes map[pm.Activity]int
	edges map[Edge]int
	// traces is the number of traces (counting multiplicity) the graph
	// was built from.
	traces int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[pm.Activity]int), edges: make(map[Edge]int)}
}

// Build synthesizes the DFG from an activity-log in a single pass.
// Virtual start/end activities present in the log's traces become regular
// nodes (with counts equal to the number of traces), exactly as in the
// paper's figures where ● and ■ carry the trace multiplicities on their
// edges. It is the materializing form of Builder.
func Build(l *pm.Log) *Graph {
	b := NewBuilder()
	for _, v := range l.Variants() {
		b.AddVariant(v.Seq, v.Mult)
	}
	return b.Finalize()
}

// Merge folds another graph's occurrence counts into g. The graph is
// pure counting, so the merge is exact and order-insensitive: merging
// shard partials in any order equals building one graph from all the
// traces. o stays usable.
func (g *Graph) Merge(o *Graph) {
	if o == nil {
		return
	}
	g.traces += o.traces
	for a, c := range o.nodes {
		g.nodes[a] += c
	}
	for e, c := range o.edges {
		g.edges[e] += c
	}
}

// Merge merges partial graphs (shard partials of one logical fold) into
// a new graph; the inputs stay usable.
func Merge(graphs ...*Graph) *Graph {
	out := New()
	for _, g := range graphs {
		out.Merge(g)
	}
	return out
}

// AddNode inserts (or increments) a node with the given occurrence count,
// for manual graph construction in tools and tests.
func (g *Graph) AddNode(a pm.Activity, count int) {
	g.nodes[a] += count
}

// AddEdge inserts (or increments) an edge with the given observation
// count, creating its endpoints as needed.
func (g *Graph) AddEdge(e Edge, count int) {
	if _, ok := g.nodes[e.From]; !ok {
		g.nodes[e.From] = 0
	}
	if _, ok := g.nodes[e.To]; !ok {
		g.nodes[e.To] = 0
	}
	g.edges[e] += count
}

// NumNodes returns the number of distinct activities in the graph,
// including virtual endpoints if present.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of distinct directly-follows relations.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumTraces returns the number of traces the graph was built from.
func (g *Graph) NumTraces() int { return g.traces }

// HasNode reports whether the activity occurs in the graph.
func (g *Graph) HasNode(a pm.Activity) bool { _, ok := g.nodes[a]; return ok }

// HasEdge reports whether the directly-follows relation occurs.
func (g *Graph) HasEdge(e Edge) bool { _, ok := g.edges[e]; return ok }

// NodeCount returns the number of occurrences of the activity.
func (g *Graph) NodeCount(a pm.Activity) int { return g.nodes[a] }

// EdgeCount returns the number of observations of the directly-follows
// relation.
func (g *Graph) EdgeCount(e Edge) int { return g.edges[e] }

// Nodes returns the activities in deterministic (lexicographic) order,
// with virtual start first and end last.
func (g *Graph) Nodes() []pm.Activity {
	out := make([]pm.Activity, 0, len(g.nodes))
	for a := range g.nodes {
		out = append(out, a)
	}
	slices.SortFunc(out, nodeCmp)
	return out
}

// nodeCmp orders activities by rank (virtual start, the rest, virtual
// end), then lexicographically.
func nodeCmp(a, b pm.Activity) int {
	if c := cmp.Compare(nodeRank(a), nodeRank(b)); c != 0 {
		return c
	}
	return strings.Compare(string(a), string(b))
}

func nodeRank(a pm.Activity) int {
	switch a {
	case pm.Start:
		return 0
	case pm.End:
		return 2
	default:
		return 1
	}
}

// Edges returns the edges in deterministic order (by from-node, then
// to-node, following the same ranking as Nodes).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	slices.SortFunc(out, func(x, y Edge) int {
		if c := nodeCmp(x.From, y.From); c != 0 {
			return c
		}
		return nodeCmp(x.To, y.To)
	})
	return out
}

// OutEdges returns the edges leaving a, in deterministic order.
func (g *Graph) OutEdges(a pm.Activity) []Edge {
	var out []Edge
	for e := range g.edges {
		if e.From == a {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(x, y Edge) int { return nodeCmp(x.To, y.To) })
	return out
}

// InEdges returns the edges entering a, in deterministic order.
func (g *Graph) InEdges(a pm.Activity) []Edge {
	var out []Edge
	for e := range g.edges {
		if e.To == a {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(x, y Edge) int { return nodeCmp(x.From, y.From) })
	return out
}

// OutWeight returns the summed counts of edges leaving a; InWeight the
// summed counts of edges entering a. With endpoint-augmented traces both
// equal NodeCount(a) for every non-virtual activity (flow conservation),
// an invariant the tests rely on.
func (g *Graph) OutWeight(a pm.Activity) int {
	n := 0
	for e, c := range g.edges {
		if e.From == a {
			n += c
		}
	}
	return n
}

// InWeight returns the summed counts of edges entering a.
func (g *Graph) InWeight(a pm.Activity) int {
	n := 0
	for e, c := range g.edges {
		if e.To == a {
			n += c
		}
	}
	return n
}

// TotalEdgeCount returns the sum of all edge observation counts.
func (g *Graph) TotalEdgeCount() int {
	n := 0
	for _, c := range g.edges {
		n += c
	}
	return n
}

// Equal reports whether two graphs have identical node and edge sets with
// identical counts.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.nodes) != len(o.nodes) || len(g.edges) != len(o.edges) {
		return false
	}
	for a, c := range g.nodes {
		if o.nodes[a] != c {
			return false
		}
	}
	for e, c := range g.edges {
		if o.edges[e] != c {
			return false
		}
	}
	return true
}

// String renders a deterministic adjacency summary, useful in error
// messages and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFG: %d nodes, %d edges, %d traces\n", g.NumNodes(), g.NumEdges(), g.traces)
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %s → %s [%d]\n", e.From, e.To, g.edges[e])
	}
	return b.String()
}
