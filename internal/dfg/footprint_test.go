package dfg

import (
	"strings"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

func TestFootprintRelations(t *testing.T) {
	g := buildGraph(t, logA(t))
	fp := NewFootprint(g)
	if len(fp.Activities) != 4 {
		t.Fatalf("activities = %v", fp.Activities)
	}
	// read:/usr/lib directly precedes read:/proc/filesystems, never the
	// reverse.
	if r := fp.Relation("read:/usr/lib", "read:/proc/filesystems"); r != precedes {
		t.Errorf("lib vs proc = %v, want →", r)
	}
	if r := fp.Relation("read:/proc/filesystems", "read:/usr/lib"); r != follows {
		t.Errorf("proc vs lib = %v, want ←", r)
	}
	// Self-loops read as parallel (both directions trivially exist).
	if r := fp.Relation("read:/usr/lib", "read:/usr/lib"); r != parallel {
		t.Errorf("self relation = %v, want ∥", r)
	}
	// No relation between /usr/lib and /dev/pts in the ls trace.
	if r := fp.Relation("read:/usr/lib", "write:/dev/pts"); r != unrelated {
		t.Errorf("lib vs pts = %v, want #", r)
	}
	// Unknown activities are unrelated.
	if r := fp.Relation("x", "y"); r != unrelated {
		t.Errorf("unknown = %v", r)
	}
	// Rendering includes the symbols.
	s := fp.String()
	for _, sym := range []string{"→", "←", "∥", "#"} {
		if !strings.Contains(s, sym) {
			t.Errorf("footprint render missing %q:\n%s", sym, s)
		}
	}
}

func TestFootprintDiffAndSimilarity(t *testing.T) {
	ga := buildGraph(t, logA(t))
	gb := buildGraph(t, logB(t))
	fa, fb := NewFootprint(ga), NewFootprint(gb)

	// Self-similarity is exact.
	if s := fa.Similarity(NewFootprint(buildGraph(t, logA(t)))); s != 1.0 {
		t.Errorf("self similarity = %v", s)
	}
	if d := fa.Diff(fa); len(d) != 0 {
		t.Errorf("self diff = %v", d)
	}

	// ls vs ls -l differ structurally.
	diffs := fa.Diff(fb)
	if len(diffs) == 0 {
		t.Fatalf("no structural differences found")
	}
	s := fa.Similarity(fb)
	if s <= 0 || s >= 1 {
		t.Errorf("similarity = %v, want in (0,1)", s)
	}
	// Diff is symmetric in count with sides swapped.
	rev := fb.Diff(fa)
	if len(rev) != len(diffs) {
		t.Errorf("diff asymmetry: %d vs %d", len(diffs), len(rev))
	}
	// One expected difference: in ls, locale.alias → pts; in ls -l,
	// locale.alias → nsswitch.conf instead.
	found := false
	for _, d := range diffs {
		if d.A == "read:/etc/locale.alias" && d.B == "write:/dev/pts" &&
			d.Left == precedes && d.Rite == unrelated {
			found = true
		}
	}
	if !found {
		t.Errorf("expected locale→pts structural diff, got %v", diffs)
	}
}

func TestFootprintEmptyAndDisjoint(t *testing.T) {
	empty := NewFootprint(newGraph())
	if len(empty.Activities) != 0 {
		t.Errorf("empty footprint = %v", empty.Activities)
	}
	if s := empty.Similarity(empty); s != 1.0 {
		t.Errorf("empty similarity = %v", s)
	}
	// Completely disjoint alphabets: every self/cross cell with a
	// relation in one side disagrees.
	a := trace.NewCase(trace.CaseID{CID: "x", Host: "h", RID: 1}, []trace.Event{
		{Call: "p", Start: 1, FP: "/x"}, {Call: "p", Start: 2, FP: "/x"},
	})
	b := trace.NewCase(trace.CaseID{CID: "y", Host: "h", RID: 1}, []trace.Event{
		{Call: "q", Start: 1, FP: "/x"}, {Call: "q", Start: 2, FP: "/x"},
	})
	m := pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) { return pm.Activity(e.Call), true })
	fa := NewFootprint(Build(pm.Build(trace.MustNewEventLog(a), m, pm.BuildOptions{Endpoints: true})))
	fb := NewFootprint(Build(pm.Build(trace.MustNewEventLog(b), m, pm.BuildOptions{Endpoints: true})))
	if s := fa.Similarity(fb); s >= 1 {
		t.Errorf("disjoint similarity = %v", s)
	}
	if d := fa.Diff(fb); len(d) != 2 { // p∥p vs #, q# vs q∥q
		t.Errorf("disjoint diff = %v", d)
	}
}
