package dfg

import (
	"fmt"
	"sort"
	"strings"

	"stinspector/internal/pm"
)

// Relation is the footprint relation between two activities, as defined
// in the process-discovery foundations the paper builds on (van der
// Aalst, "Foundations of Process Discovery" — the same source as the DFG
// definition): for activities a and b,
//
//	a → b  (precedes)  when a is directly followed by b but never the
//	                   reverse,
//	a ← b  (follows)   when only the reverse is observed,
//	a ∥ b  (parallel)  when both directions are observed,
//	a # b  (unrelated) when neither is.
type Relation int

const (
	// unrelated: neither a→b nor b→a observed (#).
	unrelated Relation = iota
	// precedes: a→b only.
	precedes
	// follows: b→a only.
	follows
	// parallel: both directions observed (∥).
	parallel
)

// String renders the relation symbol.
func (r Relation) String() string {
	switch r {
	case precedes:
		return "→"
	case follows:
		return "←"
	case parallel:
		return "∥"
	default:
		return "#"
	}
}

// Footprint is the relation matrix over an activity alphabet. It is a
// compact, alignment-friendly summary of a DFG: two runs with the same
// footprint have the same causal structure even if their counts differ,
// and the cell-wise diff pinpoints where the structure changed.
type Footprint struct {
	Activities []pm.Activity
	index      map[pm.Activity]int
	cells      []Relation // row-major len(Activities)²
}

// NewFootprint derives the footprint of a graph. Virtual start/end
// activities are excluded: the footprint describes the observable
// activities only.
func NewFootprint(g *Graph) *Footprint {
	var acts []pm.Activity
	for _, a := range g.Nodes() {
		if !a.IsVirtual() {
			acts = append(acts, a)
		}
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i] < acts[j] })
	fp := &Footprint{
		Activities: acts,
		index:      make(map[pm.Activity]int, len(acts)),
		cells:      make([]Relation, len(acts)*len(acts)),
	}
	for i, a := range acts {
		fp.index[a] = i
	}
	for i, a := range acts {
		for j, b := range acts {
			ab := g.hasEdge(Edge{From: a, To: b})
			ba := g.hasEdge(Edge{From: b, To: a})
			var r Relation
			switch {
			case ab && ba:
				r = parallel
			case ab:
				r = precedes
			case ba:
				r = follows
			}
			fp.cells[i*len(acts)+j] = r
		}
	}
	return fp
}

// Relation returns the footprint cell for (a, b); unrelated when either
// activity is not in the alphabet.
func (fp *Footprint) Relation(a, b pm.Activity) Relation {
	i, ok1 := fp.index[a]
	j, ok2 := fp.index[b]
	if !ok1 || !ok2 {
		return unrelated
	}
	return fp.cells[i*len(fp.Activities)+j]
}

// String renders the matrix with the conventional symbols.
func (fp *Footprint) String() string {
	var b strings.Builder
	w := 0
	for _, a := range fp.Activities {
		if len(a) > w {
			w = len(string(a))
		}
	}
	fmt.Fprintf(&b, "%-*s", w+2, "")
	for j := range fp.Activities {
		fmt.Fprintf(&b, "%3d", j)
	}
	b.WriteByte('\n')
	for i, a := range fp.Activities {
		fmt.Fprintf(&b, "%2d %-*s", i, w-1, a)
		for j := range fp.Activities {
			fmt.Fprintf(&b, "%3s", fp.cells[i*len(fp.Activities)+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FootprintDiff is one structural difference between two footprints.
type FootprintDiff struct {
	A, B pm.Activity
	Left Relation
	Rite Relation
}

// Diff returns the cells over the union alphabet where the two
// footprints disagree, in deterministic order. Activities missing from
// one footprint compare as unrelated there, so added/removed activities
// surface through their relations.
func (fp *Footprint) Diff(o *Footprint) []FootprintDiff {
	seen := make(map[pm.Activity]bool)
	var alphabet []pm.Activity
	for _, a := range fp.Activities {
		if !seen[a] {
			seen[a] = true
			alphabet = append(alphabet, a)
		}
	}
	for _, a := range o.Activities {
		if !seen[a] {
			seen[a] = true
			alphabet = append(alphabet, a)
		}
	}
	sort.Slice(alphabet, func(i, j int) bool { return alphabet[i] < alphabet[j] })
	var out []FootprintDiff
	for _, a := range alphabet {
		for _, b := range alphabet {
			l, r := fp.Relation(a, b), o.Relation(a, b)
			if l != r {
				out = append(out, FootprintDiff{A: a, B: b, Left: l, Rite: r})
			}
		}
	}
	return out
}

// Similarity returns the fraction of agreeing cells over the union
// alphabet, 1.0 for structurally identical behaviour. It is a coarse
// conformance measure between two program configurations.
func (fp *Footprint) Similarity(o *Footprint) float64 {
	seen := make(map[pm.Activity]bool)
	n := 0
	for _, a := range fp.Activities {
		if !seen[a] {
			seen[a] = true
			n++
		}
	}
	for _, a := range o.Activities {
		if !seen[a] {
			seen[a] = true
			n++
		}
	}
	if n == 0 {
		return 1
	}
	diffs := len(fp.Diff(o))
	total := n * n
	return float64(total-diffs) / float64(total)
}
