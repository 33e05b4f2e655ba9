package core

import (
	"fmt"
	"testing"
	"time"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/source"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// TestSplitMatchesEventLogPartition is the differential test of
// dfg.Split: over every generator profile, two mappings, four case
// predicates and sharded folds, the G and R graphs split from the
// fold's activity-log equal the DFGs built from the partitioned
// event-log. Every log also holds a green case whose every event falls
// outside the mapping domain; it must land in neither graph.
func TestSplitMatchesEventLogPartition(t *testing.T) {
	// nomap excludes the "nomap" call from a mapping's domain.
	nomap := func(m pm.Mapping) pm.Mapping {
		return pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
			if e.Call == "nomap" {
				return "", false
			}
			return m.Map(e)
		})
	}
	mappings := map[string]pm.Mapping{
		"topdirs:2": nomap(pm.CallTopDirs{Depth: 2}),
		"file:1":    nomap(pm.CallFileName{Keep: 1}),
	}
	preds := map[string]func(trace.CaseID) bool{
		"cid":        func(id trace.CaseID) bool { return id.CID == "g" },
		"rid parity": func(id trace.CaseID) bool { return id.RID%2 == 0 },
		"all green":  func(trace.CaseID) bool { return true },
		"none green": func(trace.CaseID) bool { return false },
	}
	unmapped := trace.NewCase(trace.CaseID{CID: "g", Host: "h", RID: 1000}, []trace.Event{
		{Call: "nomap", FP: "/x", Dur: time.Microsecond},
		{Call: "nomap", FP: "/y", Start: time.Millisecond, Dur: time.Microsecond},
	})
	for _, p := range profiles.All() {
		el, err := trace.Union(p.Generate("g", 12, 150, 1), p.Generate("r", 12, 150, 2), trace.MustNewEventLog(unmapped))
		if err != nil {
			t.Fatal(err)
		}
		for mname, m := range mappings {
			for _, shards := range []int{1, 3} {
				res, err := AnalyzeStreamParallel(source.FromLog(el), m, shards, true)
				if err != nil {
					t.Fatal(err)
				}
				for pname, green := range preds {
					name := fmt.Sprintf("%s/%s/shards=%d/%s", p.Name, mname, shards, pname)
					gl, rl := el.Partition(func(c *trace.Case) bool { return green(c.ID) })
					wantG := dfg.Build(pm.Build(gl, m, pm.BuildOptions{Endpoints: true}))
					wantR := dfg.Build(pm.Build(rl, m, pm.BuildOptions{Endpoints: true}))
					g, r := dfg.Split(res.ActivityLog, green)
					if !g.Equal(wantG) || g.NumTraces() != wantG.NumTraces() {
						t.Errorf("%s: G graph differs from the partition's DFG", name)
					}
					if !r.Equal(wantR) || r.NumTraces() != wantR.NumTraces() {
						t.Errorf("%s: R graph differs from the partition's DFG", name)
					}
					// The unmapped case is the one case in neither graph.
					if n := g.NumTraces() + r.NumTraces(); n != el.NumCases()-1 {
						t.Errorf("%s: G and R hold %d traces, want %d", name, n, el.NumCases()-1)
					}
				}
			}
		}
	}
}
