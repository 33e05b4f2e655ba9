package dfg

import (
	"stinspector/internal/intern"
	"stinspector/internal/pm"
)

// Builder constructs a DFG incrementally, one activity trace at a time —
// the streaming form of Build. Because the graph is pure occurrence
// counting, folding the same traces in any order (per case as a stream
// delivers them, or per variant as Build does) yields an identical
// graph.
//
// The builder counts in symbol space: activities are dense symbols from
// an intern.Local table (its own, or one shared with the shard's
// SymMapper via NewBuilderSym), node counts live in a slice indexed by
// symbol and edge counts in a map keyed by the packed symbol pair — no
// string hashing per event. Finalize materializes the classic
// string-keyed Graph.
type Builder struct {
	tab    *intern.Local
	nodes  []int  // occurrence count by activity symbol
	seen   []bool // activity appeared in a trace (counts can be 0)
	edges  map[uint64]int
	traces int

	symbuf []intern.Sym // addVariant scratch
}

// newBuilder returns a builder over an empty graph with its own
// activity symbol table.
func newBuilder() *Builder { return NewBuilderSym(intern.NewLocal()) }

// NewBuilderSym returns a builder whose activity symbols are drawn from
// the given table — the shard-sharing form: pass the SymMapper's Acts()
// table and feed the sequences pm.Builder.AddMapped returns straight
// into AddSymVariant.
func NewBuilderSym(tab *intern.Local) *Builder {
	return &Builder{tab: tab, edges: make(map[uint64]int, 32)}
}

// addVariant folds a trace with a multiplicity, the variant form.
func (b *Builder) addVariant(seq pm.Trace, mult int) {
	syms := b.symbuf[:0]
	for _, a := range seq {
		syms = append(syms, b.tab.Intern(string(a)))
	}
	b.symbuf = syms
	b.AddSymVariant(syms, mult)
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

// MergeFrom folds another builder's counts into b, remapping o's
// shard-local symbols through b's table — the symbol form of
// Graph.Merge, used by the sharded analysis fold before a single
// Finalize. The counts are integer sums, so merging shard partials in
// any order equals building one graph from all the traces. o must not
// be used afterwards.
func (b *Builder) MergeFrom(o *Builder) {
	if o == nil {
		return
	}
	b.traces += o.traces
	r := o.tab.RemapInto(b.tab)
	for y, c := range o.nodes {
		if !o.seen[y] {
			continue
		}
		m := r[y]
		b.grow(m)
		b.nodes[m] += c
		b.seen[m] = true
	}
	for e, c := range o.edges {
		from, to := r[intern.Sym(e>>32)], r[intern.Sym(uint32(e))]
		b.edges[uint64(from)<<32|uint64(to)] += c
	}
}

// Finalize materializes the accumulated counts into a Graph. The
// builder must not be used afterwards.
func (b *Builder) Finalize() *Graph {
	g := New()
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
