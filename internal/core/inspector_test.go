package core

import (
	"path/filepath"
	"strings"
	"testing"

	"stinspector/internal/archive"
	"stinspector/internal/dfg"
	"stinspector/internal/dxt"
	"stinspector/internal/lssim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

func demoInspector() *Inspector {
	_, _, cx := lssim.Both(lssim.Config{})
	return FromEventLog(cx)
}

func TestPipelineFig6(t *testing.T) {
	in := demoInspector()

	// Step 1: filter to /usr/lib.
	filtered := in.FilterPath("/usr/lib")
	if filtered.EventLog().NumEvents() != 18 {
		t.Errorf("filtered events = %d, want 18", filtered.EventLog().NumEvents())
	}
	// The original inspector is untouched.
	if in.EventLog().NumEvents() != 75 {
		t.Errorf("original mutated: %d", in.EventLog().NumEvents())
	}

	// Step 2: mapping at file granularity (Figure 4).
	fileView := filtered.WithMapping(pm.CallFileName{Keep: 2})
	g := fileView.DFG()
	wantNodes := []pm.Activity{
		"read:x86_64-linux-gnu/libselinux.so.1",
		"read:x86_64-linux-gnu/libc.so.6",
		"read:x86_64-linux-gnu/libpcre2-8.so.0.10.4",
	}
	for _, a := range wantNodes {
		if !g.HasNode(a) {
			t.Errorf("Figure 4 node %s missing", a)
		}
	}
	// Fig 4: the three library reads form a chain, each edge count 6.
	e := dfg.Edge{From: wantNodes[0], To: wantNodes[1]}
	if g.EdgeCount(e) != 6 {
		t.Errorf("edge %s = %d, want 6", e, g.EdgeCount(e))
	}

	// Steps 3-5: DFG, stats, render.
	st := in.Stats()
	if st.Get("read:/usr/lib") == nil {
		t.Fatalf("stats missing")
	}
	dot := in.RenderDOT(render.StatisticsColoring{Stats: st})
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "fillcolor") {
		t.Errorf("dot output broken")
	}
	txt := in.RenderText()
	if !strings.Contains(txt, "read:/usr/lib") {
		t.Errorf("text output broken")
	}
}

func TestPartitionByCID(t *testing.T) {
	in := demoInspector()
	full, p := in.PartitionByCID("a")
	if p.Node("read:/etc/passwd") != dfg.Red {
		t.Errorf("passwd class = %v, want red", p.Node("read:/etc/passwd"))
	}
	if p.Node("read:/usr/lib") != dfg.Shared {
		t.Errorf("usr/lib class = %v, want shared", p.Node("read:/usr/lib"))
	}
	green, _, _ := p.CountNodes()
	if green != 0 {
		t.Errorf("green nodes = %d, want 0", green)
	}
	if !full.HasEdge(dfg.Edge{From: "read:/etc/locale.alias", To: "write:/dev/pts"}) {
		t.Errorf("full graph missing the ls-exclusive edge")
	}
}

// loadArchive composes the archive backend with LoadStream, the way the
// facade's FromArchive does.
func loadArchive(path string, parallelism int) (*Inspector, error) {
	src, err := archive.OpenSource(path, archive.Options{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return LoadStream(src, false)
}

// loadDXT composes the DXT backend with LoadStream, the way the
// facade's FromDXT does.
func loadDXT(cid, dump string) (*Inspector, error) {
	records, err := dxt.Parse(strings.NewReader(dump))
	if err != nil {
		return nil, err
	}
	src := dxt.Stream(cid, records, 0, 0)
	defer src.Close()
	return LoadStream(src, false)
}

func TestArchiveRoundTripThroughInspector(t *testing.T) {
	in := demoInspector()
	path := filepath.Join(t.TempDir(), "cx.sta")
	if err := in.SaveArchive(path); err != nil {
		t.Fatalf("SaveArchive: %v", err)
	}
	back, err := loadArchive(path, 0)
	if err != nil {
		t.Fatalf("loadArchive: %v", err)
	}
	if !back.DFG().Equal(in.DFG()) {
		t.Errorf("DFG changed across archive round trip")
	}
}

func TestStraceDirIngestion(t *testing.T) {
	// Write the ls example as strace text files, read them back via
	// the full parser path, and verify the DFG is identical to the
	// direct path.
	_, _, cx := lssim.Both(lssim.Config{})
	dir := t.TempDir()
	if err := strace.WriteDir(dir, cx); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	in, err := FromStraceDir(dir, strace.Options{Strict: true})
	if err != nil {
		t.Fatalf("FromStraceDir: %v", err)
	}
	want := FromEventLog(cx)
	if !in.DFG().Equal(want.DFG()) {
		t.Errorf("strace round trip changed the DFG:\ngot %s\nwant %s", in.DFG(), want.DFG())
	}
}

func TestFilterCalls(t *testing.T) {
	in := demoInspector().FilterCalls("write")
	acts := in.Stats().Activities()
	if len(acts) != 1 || acts[0] != "write:/dev/pts" {
		t.Errorf("activities = %v", acts)
	}
}

func TestTimeline(t *testing.T) {
	in := demoInspector()
	tl := in.Timeline("read:/usr/lib")
	if len(tl) != 18 {
		t.Errorf("timeline = %d intervals, want 18", len(tl))
	}
}

func TestSummary(t *testing.T) {
	s := demoInspector().Summary()
	if !strings.Contains(s, "6 cases") || !strings.Contains(s, "75 events") {
		t.Errorf("summary = %q", s)
	}
}

func TestImmutability(t *testing.T) {
	in := demoInspector()
	el := in.EventLog()
	_ = in.FilterPath("/usr")
	_ = in.WithMapping(pm.CallFileName{})
	if in.EventLog() != el {
		t.Errorf("derivations mutated the receiver")
	}
	var _ = trace.CaseID{} // keep import for clarity of the test's domain
}
