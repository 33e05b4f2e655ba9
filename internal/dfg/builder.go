package dfg

import (
	"stinspector/internal/intern"
	"stinspector/internal/pm"
)

// Builder counts a DFG one activity trace at a time, each with a
// multiplicity: Build and Split feed it an activity-log's variants in
// the log's own symbols.
// Because the graph is pure occurrence counting, folding the same
// traces in any order yields an identical graph.
//
// The builder counts in symbol space: activities are dense symbols from
// an intern.Local table (the one given to NewBuilderSym), node
// counts live in a slice indexed by symbol and edge counts in a map
// keyed by the packed symbol pair — no string hashing per event.
// Finalize materializes the classic string-keyed Graph.
type Builder struct {
	tab    *intern.Local
	nodes  []int  // occurrence count by activity symbol
	seen   []bool // activity appeared in a trace (counts can be 0)
	edges  map[uint64]int
	traces int
}

// NewBuilderSym returns a builder whose activity symbols are drawn from
// the given table, so traces already in that table's symbol space (a
// SymMapper's Acts(), as pm.Builder.AddMapped returns them, or a
// pm.Log's Acts(), as its variants' Syms hold them) go straight into
// AddSymVariant. The builder only reads the table (Str at Finalize), so
// builders over one table may run concurrently.
func NewBuilderSym(tab *intern.Local) *Builder {
	return &Builder{tab: tab, edges: make(map[uint64]int, 32)}
}

// AddSymVariant folds a trace already in symbol space (symbols from the
// builder's table) with a multiplicity. This is the per-event hot path
// of DFG synthesis: a slice increment per activity and one integer-key
// map increment per transition.
func (b *Builder) AddSymVariant(seq []intern.Sym, mult int) {
	b.traces += mult
	prev := intern.Sym(0)
	for i, y := range seq {
		b.grow(y)
		b.nodes[y] += mult
		b.seen[y] = true
		if i > 0 {
			b.edges[uint64(prev)<<32|uint64(y)] += mult
		}
		prev = y
	}
}

func (b *Builder) grow(y intern.Sym) {
	for int(y) >= len(b.nodes) {
		b.nodes = append(b.nodes, 0)
		b.seen = append(b.seen, false)
	}
}

// Finalize materializes the accumulated counts into a Graph. The
// builder must not be used afterwards.
func (b *Builder) Finalize() *Graph {
	g := newGraph()
	g.traces = b.traces
	for y, c := range b.nodes {
		if b.seen[y] {
			g.nodes[pm.Activity(b.tab.Str(intern.Sym(y)))] = c
		}
	}
	for e, c := range b.edges {
		g.edges[Edge{
			From: pm.Activity(b.tab.Str(intern.Sym(e >> 32))),
			To:   pm.Activity(b.tab.Str(intern.Sym(uint32(e)))),
		}] = c
	}
	return g
}
