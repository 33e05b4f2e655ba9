package dfg

import (
	"sort"

	"stinspector/internal/pm"
)

// FilterCounts returns a copy of the graph keeping only nodes observed
// at least minNode times and edges observed at least minEdge times
// (virtual start/end nodes are always kept). Frequency filtering is the
// standard interactive simplification of process-mining DFG viewers: the
// paper recommends mappings that keep the graph small, and this provides
// the complementary post-hoc reduction when they do not.
//
// Edges whose endpoint was dropped are removed as well, so the result is
// a well-formed subgraph. Counts are preserved, which means flow
// conservation generally no longer holds on the filtered graph.
func (g *Graph) FilterCounts(minNode, minEdge int) *Graph {
	out := New()
	out.traces = g.traces
	for a, c := range g.nodes {
		if a.IsVirtual() || c >= minNode {
			out.nodes[a] = c
		}
	}
	for e, c := range g.edges {
		if c < minEdge {
			continue
		}
		if _, ok := out.nodes[e.From]; !ok {
			continue
		}
		if _, ok := out.nodes[e.To]; !ok {
			continue
		}
		out.edges[e] = c
	}
	return out
}

// Project returns the subgraph induced by the given activities (plus the
// virtual endpoints): only edges with both endpoints retained survive.
func (g *Graph) Project(keep func(pm.Activity) bool) *Graph {
	out := New()
	out.traces = g.traces
	for a, c := range g.nodes {
		if a.IsVirtual() || keep(a) {
			out.nodes[a] = c
		}
	}
	for e, c := range g.edges {
		_, okF := out.nodes[e.From]
		_, okT := out.nodes[e.To]
		if okF && okT {
			out.edges[e] = c
		}
	}
	return out
}

// UnionGraphs returns the edge-wise and node-wise sum of the graphs, the
// DFG counterpart of event-log union: Build(L(C_a) ∪ L(C_b)) equals
// UnionGraphs(Build(L(C_a)), Build(L(C_b))) (tested as the additivity
// property). It is Merge under the paper's name.
func UnionGraphs(gs ...*Graph) *Graph { return Merge(gs...) }

// TopEdges returns the n most frequent edges (ties broken
// deterministically by edge order).
func (g *Graph) TopEdges(n int) []Edge {
	edges := g.Edges()
	sort.SliceStable(edges, func(i, j int) bool {
		return g.edges[edges[i]] > g.edges[edges[j]]
	})
	if n > len(edges) {
		n = len(edges)
	}
	return edges[:n]
}

// SelfLoops returns the activities with self-edges and their counts,
// in deterministic order. In the paper's figures self-loops mark the
// repeated sequential accesses (read…read of a block, write…write of
// transfers).
func (g *Graph) SelfLoops() map[pm.Activity]int {
	out := make(map[pm.Activity]int)
	for e, c := range g.edges {
		if e.From == e.To {
			out[e.From] = c
		}
	}
	return out
}

// DominantPath greedily follows the highest-count outgoing edge from the
// virtual start activity until the end activity, a node repeats, or no
// edge leaves the current node. It extracts the "main flow" a human
// reads off the rendered DFG.
func (g *Graph) DominantPath() []pm.Activity {
	// Each node's heaviest non-self out-edge, found in one pass over the
	// edges. Edges() lists a node's out-edges in OutEdges order, and
	// strict > keeps the first maximum, as a per-node scan would.
	type pick struct {
		e     Edge
		count int
	}
	best := make(map[pm.Activity]pick)
	for _, e := range g.Edges() {
		if e.To == e.From {
			continue // self-loops are not flow
		}
		b, ok := best[e.From]
		if !ok {
			b.count = -1
		}
		if c := g.edges[e]; c > b.count {
			best[e.From] = pick{e, c}
		}
	}
	path := []pm.Activity{pm.Start}
	seen := map[pm.Activity]bool{pm.Start: true}
	cur := pm.Start
	for cur != pm.End {
		b, ok := best[cur]
		if !ok {
			break
		}
		next := b.e
		path = append(path, next.To)
		if next.To == pm.End || seen[next.To] {
			break
		}
		seen[next.To] = true
		cur = next.To
	}
	return path
}
