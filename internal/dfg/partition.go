package dfg

import (
	"fmt"

	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

// Class is the partition-based color class of a node or edge
// (Section IV-C): Green for elements occurring exclusively in the
// G-subset's DFG, Red for elements exclusive to the R-subset, Shared for
// elements occurring in both.
type Class int

const (
	// Shared marks elements present in both partitions (left uncolored
	// in the paper's figures).
	Shared Class = iota
	// Green marks elements exclusive to the G subset.
	Green
	// Red marks elements exclusive to the R subset.
	Red
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Green:
		return "green"
	case Red:
		return "red"
	case Shared:
		return "shared"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Partition is the result of classifying the elements of a full DFG
// against the DFGs of two mutually exclusive event-log subsets.
type Partition struct {
	Nodes map[pm.Activity]Class
	EdgeC map[Edge]Class
}

// Split derives the DFGs of the two mutually exclusive subsets of
// Equation (18) from an activity-log: each variant's multiplicity is
// divided by its case list into the cases green selects (the G subset)
// and the rest (R), and each side folds the variant with its share.
// The result equals the DFGs of the two event-log subsets, without
// partitioning the event-log or mapping an event twice, so the
// comparison runs on a fold's finalized activity-log. A variant's
// cases beyond its case list (hand-built logs only) count as R.
func Split(l *pm.Log, green func(trace.CaseID) bool) (g, r *Graph) {
	gb, rb := NewBuilderSym(l.Acts()), NewBuilderSym(l.Acts())
	for _, v := range l.Variants() {
		n := 0
		for _, id := range v.Cases {
			if green(id) {
				n++
			}
		}
		if n > 0 {
			gb.AddSymVariant(v.Syms, n)
		}
		if v.Mult > n {
			rb.AddSymVariant(v.Syms, v.Mult-n)
		}
	}
	return gb.Finalize(), rb.Finalize()
}

// Classify colors the nodes and edges of the full graph according to the
// partition-based strategy of Section IV-C:
//
//   - elements occurring exclusively in green's DFG are Green,
//   - elements occurring exclusively in red's DFG are Red,
//   - elements occurring in both are Shared.
//
// Elements of the full graph missing from both subset graphs (possible
// only if full was not built from the union of the two subsets) are
// classified Shared, the neutral class.
func Classify(full, green, red *Graph) *Partition {
	p := &Partition{
		Nodes: make(map[pm.Activity]Class, full.NumNodes()),
		EdgeC: make(map[Edge]Class, full.NumEdges()),
	}
	for _, a := range full.Nodes() {
		p.Nodes[a] = classOf(green.HasNode(a), red.HasNode(a))
	}
	for _, e := range full.Edges() {
		p.EdgeC[e] = classOf(green.hasEdge(e), red.hasEdge(e))
	}
	return p
}

func classOf(inGreen, inRed bool) Class {
	switch {
	case inGreen && !inRed:
		return Green
	case inRed && !inGreen:
		return Red
	default:
		return Shared
	}
}

// Node returns the class of an activity (Shared when unknown).
func (p *Partition) Node(a pm.Activity) Class { return p.Nodes[a] }

// Edge returns the class of an edge (Shared when unknown).
func (p *Partition) Edge(e Edge) Class { return p.EdgeC[e] }

// CountNodes returns how many nodes fall in each class.
func (p *Partition) CountNodes() (green, red, shared int) {
	for _, c := range p.Nodes {
		switch c {
		case Green:
			green++
		case Red:
			red++
		default:
			shared++
		}
	}
	return
}

// CountEdges returns how many edges fall in each class.
func (p *Partition) CountEdges() (green, red, shared int) {
	for _, c := range p.EdgeC {
		switch c {
		case Green:
			green++
		case Red:
			red++
		default:
			shared++
		}
	}
	return
}
