package dfg

import (
	"math/rand"
	"testing"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

// bruteForceDFG builds the DFG definition literally: for every pair of
// adjacent activities in every trace (with multiplicity), count the
// directly-follows observation. It is the executable form of
// Definition 4 the optimized builder must agree with.
func bruteForceDFG(l *pm.Log) (map[Edge]int, map[pm.Activity]int) {
	edges := make(map[Edge]int)
	nodes := make(map[pm.Activity]int)
	for _, v := range l.Variants() {
		for rep := 0; rep < v.Mult; rep++ {
			for i, a := range v.Seq {
				nodes[a]++
				if i+1 < len(v.Seq) {
					edges[Edge{From: a, To: v.Seq[i+1]}]++
				}
			}
		}
	}
	return edges, nodes
}

// Property: Build agrees with the literal definition on random logs.
func TestBuildMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g"}
	for trial := 0; trial < 60; trial++ {
		var cases []*trace.Case
		nc := 1 + rng.Intn(12)
		for c := 0; c < nc; c++ {
			n := rng.Intn(25)
			evs := make([]trace.Event, n)
			for i := range evs {
				evs[i] = trace.Event{
					Call:  alphabet[rng.Intn(len(alphabet))],
					FP:    "/x",
					Start: time.Duration(i) * time.Millisecond,
				}
			}
			cases = append(cases, trace.NewCase(trace.CaseID{CID: "bf", Host: "h", RID: c}, evs))
		}
		el := trace.MustNewEventLog(cases...)
		m := pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
			// Partial mapping: drop activity "g" entirely.
			if e.Call == "g" {
				return "", false
			}
			return pm.Activity(e.Call), true
		})
		l := pm.Build(el, m, pm.BuildOptions{Endpoints: true})
		g := Build(l)
		wantEdges, wantNodes := bruteForceDFG(l)

		if g.NumEdges() != len(wantEdges) {
			t.Fatalf("trial %d: edges = %d, brute force %d", trial, g.NumEdges(), len(wantEdges))
		}
		for e, c := range wantEdges {
			if g.EdgeCount(e) != c {
				t.Fatalf("trial %d: edge %s = %d, want %d", trial, e, g.EdgeCount(e), c)
			}
		}
		for a, c := range wantNodes {
			if g.nodes[a] != c {
				t.Fatalf("trial %d: node %s = %d, want %d", trial, a, g.nodes[a], c)
			}
		}
	}
}
