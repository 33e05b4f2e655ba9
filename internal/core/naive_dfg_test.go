package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// naiveDFG is Definition 4 counted straight from the events, in plain
// maps, with no activity-log or DFG builder code: each case's events
// are mapped one by one with m.Map, a case with at least one mapped
// event becomes one trace ● … ■, and every activity occurrence and
// every adjacent pair of the trace is counted. Every analysis path's
// DFG is dfg.Build of its activity-log, so only a model this far from
// both can catch a bug they share.
type naiveDFG struct {
	nodes  map[pm.Activity]int
	edges  map[dfg.Edge]int
	traces int
}

func naiveModel(el *trace.EventLog, m pm.Mapping) naiveDFG {
	n := naiveDFG{nodes: map[pm.Activity]int{}, edges: map[dfg.Edge]int{}}
	for _, c := range el.Cases() {
		seq := []pm.Activity{pm.Start}
		for _, e := range c.Events {
			if a, ok := m.Map(e); ok {
				seq = append(seq, a)
			}
		}
		if len(seq) == 1 {
			continue
		}
		seq = append(seq, pm.End)
		n.traces++
		for i, a := range seq {
			n.nodes[a]++
			if i > 0 {
				n.edges[dfg.Edge{From: seq[i-1], To: a}]++
			}
		}
	}
	return n
}

// check requires g to hold the model's nodes, edges and counts, and
// its number of traces.
func (n naiveDFG) check(t *testing.T, path string, g *dfg.Graph) {
	t.Helper()
	want := dfg.Build(&pm.Log{})
	for a, c := range n.nodes {
		want.AddNode(a, c)
	}
	for e, c := range n.edges {
		want.AddEdge(e, c)
	}
	if !g.Equal(want) || g.NumTraces() != n.traces {
		t.Errorf("%s: DFG differs from the model of %d traces:\n%s\nmodel:\n%s", path, n.traces, g, want)
	}
}

// Every analysis path — the Inspector, the sharded fold, the
// checkpointed fold run through and resumed, the merge of snapshot
// files and the durable view — yields the naive model's DFG, over every
// generator profile under the default mapping and under a partial one
// that drops events inside cases and whole cases.
func TestDFGMatchesNaiveModel(t *testing.T) {
	partial := pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
		switch e.Call {
		case "read", "write", "pread64", "pwrite64", "openat":
			return pm.CallTopDirs{Depth: 1}.Map(e)
		}
		return "", false
	})
	mappings := []struct {
		name string
		m    pm.Mapping
	}{
		{"topdirs", pm.CallTopDirs{Depth: 2}},
		{"partial", partial},
	}
	// A case the partial mapping maps nothing of: it must be no trace.
	unmapped := trace.NewCase(trace.CaseID{CID: "zz-unmapped", Host: "h", RID: 1},
		[]trace.Event{{Call: "fsync", FP: "/data/x", Start: 1, Dur: 1}, {Call: "close", FP: "/data/x", Start: 2, Dur: 1}})
	for _, p := range profiles.All() {
		el := trace.MustUnion(p.Generate("naive", 11, 30, 20240924), trace.MustNewEventLog(unmapped))
		for _, mc := range mappings {
			t.Run(p.Name+"/"+mc.name, func(t *testing.T) {
				checkNaivePaths(t, el, mc.m)
			})
		}
	}
}

func checkNaivePaths(t *testing.T, el *trace.EventLog, m pm.Mapping) {
	model := naiveModel(el, m)
	if model.traces == 0 {
		t.Fatal("the model counts no traces: the corpus exercises nothing")
	}
	model.check(t, "Inspector", FromEventLog(el).WithMapping(m).DFG())

	for _, shards := range []int{1, 2, 4} {
		res, err := AnalyzeStreamParallel(source.FromLog(el), m, shards, true)
		if err != nil {
			t.Fatal(err)
		}
		model.check(t, fmt.Sprintf("AnalyzeStreamParallel shards=%d", shards), res.DFG)
	}

	view := &DurableView{}
	res, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, 2, true,
		CheckpointOptions{Dir: t.TempDir(), Every: 3, View: view})
	if err != nil {
		t.Fatal(err)
	}
	model.check(t, "AnalyzeStreamCheckpointed", res.DFG)
	if !view.Read(func(res *StreamResult, _ int) { model.check(t, "DurableView.Read", res.DFG) }) {
		t.Error("the view published nothing")
	}

	opts := CheckpointOptions{Dir: t.TempDir(), Every: 3}
	if _, err := AnalyzeStreamCheckpointed(prefix(el, 5), m, 2, true, opts); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	if res, err = AnalyzeStreamCheckpointed(source.FromLog(el), m, 2, true, opts); err != nil {
		t.Fatal(err)
	}
	model.check(t, "AnalyzeStreamCheckpointed resumed", res.DFG)

	dir := t.TempDir()
	half := el.NumCases() / 2
	var paths []string
	for i, cs := range [][]*trace.Case{el.Cases()[:half], el.Cases()[half:]} {
		s, err := AnalyzeStreamSnapshot(&prefixSource{cases: cs}, m, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("half%d.sts", i))
		if err := snapshot.WriteFile(p, s); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	if res, err = MergeSnapshotFiles(m, paths...); err != nil {
		t.Fatal(err)
	}
	model.check(t, "MergeSnapshotFiles", res.DFG)
}
