package dfg

import (
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/wire"
)

// EncodeSnapshot serializes the graph for durable storage. Activities
// are written once in a per-snapshot intern dictionary built over the
// deterministic node order, so identical graphs encode to identical
// bytes. Counts use signed varints: the graph API never produces
// negative counts, but the encoding does not silently corrupt one.
//
// Layout (wrapped in a checksummed section by internal/snapshot):
//
//	dict:   n | string*
//	traces: uvarint
//	nodes:  n | (actSym count)*
//	edges:  n | (fromSym toSym count)*
func (g *Graph) EncodeSnapshot() []byte {
	dict := intern.NewLocal()
	var b wire.Buf

	nodes := g.Nodes()
	for _, a := range nodes {
		dict.Intern(string(a))
	}
	b.Dict(dict.Strs())

	b.Uvarint(uint64(g.traces))
	b.Uvarint(uint64(len(nodes)))
	for _, a := range nodes {
		y, _ := dict.Sym(string(a))
		b.Uvarint(uint64(y))
		b.Varint(int64(g.nodes[a]))
	}
	edges := g.Edges()
	b.Uvarint(uint64(len(edges)))
	for _, e := range edges {
		fy, _ := dict.Sym(string(e.From))
		ty, _ := dict.Sym(string(e.To))
		b.Uvarint(uint64(fy))
		b.Uvarint(uint64(ty))
		b.Varint(int64(g.edges[e]))
	}
	return b.Bytes()
}

// DecodeGraphSnapshot reconstructs a graph from EncodeSnapshot bytes.
// Every dictionary reference is range-checked and duplicate nodes and
// edges are rejected: hostile input yields a wire.CorruptError, never a
// panic.
func DecodeGraphSnapshot(data []byte) (*Graph, error) {
	c := wire.NewCursor(data)
	dict, err := c.Dict()
	if err != nil {
		return nil, err
	}
	g := New()
	if g.traces, err = c.Int(); err != nil {
		return nil, err
	}
	nn, err := c.Count(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nn; i++ {
		s, err := c.Ref(dict)
		if err != nil {
			return nil, err
		}
		a := pm.Activity(s)
		count, err := c.Varint()
		if err != nil {
			return nil, err
		}
		if _, ok := g.nodes[a]; ok {
			return nil, wire.Corruptf("duplicate node %q", a)
		}
		g.nodes[a] = int(count)
	}
	ne, err := c.Count(3)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ne; i++ {
		from, err := c.Ref(dict)
		if err != nil {
			return nil, err
		}
		to, err := c.Ref(dict)
		if err != nil {
			return nil, err
		}
		e := Edge{From: pm.Activity(from), To: pm.Activity(to)}
		count, err := c.Varint()
		if err != nil {
			return nil, err
		}
		if _, ok := g.edges[e]; ok {
			return nil, wire.Corruptf("duplicate edge %s", e)
		}
		if _, ok := g.nodes[e.From]; !ok {
			return nil, wire.Corruptf("edge %s from unknown node", e)
		}
		if _, ok := g.nodes[e.To]; !ok {
			return nil, wire.Corruptf("edge %s to unknown node", e)
		}
		g.edges[e] = int(count)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return g, nil
}
