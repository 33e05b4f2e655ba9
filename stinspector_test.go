package stinspector

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector/internal/lssim"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// TestPublicAPIPipeline drives the whole Figure 6 workflow through the
// public facade only.
func TestPublicAPIPipeline(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})

	// Write as strace text, re-ingest through the public entry point.
	dir := t.TempDir()
	if err := strace.WriteDir(dir, cx); err != nil {
		t.Fatal(err)
	}
	in, err := FromStraceDir(dir, ParseOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}

	// Consolidate to an archive and load it back.
	sta := filepath.Join(t.TempDir(), "cx.sta")
	if err := WriteArchive(sta, in.EventLog()); err != nil {
		t.Fatal(err)
	}
	back, err := FromArchive(sta, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.EventLog().NumEvents() != cx.NumEvents() {
		t.Fatalf("archive round trip lost events: %d vs %d", back.EventLog().NumEvents(), cx.NumEvents())
	}

	// Filter, map, synthesize.
	view := in.FilterPath("/usr/lib").WithMapping(CallTopDirs{Depth: 2})
	g := view.DFG()
	if !g.HasNode("read:/usr/lib") {
		t.Fatalf("DFG missing node: %s", g)
	}
	st := view.Stats()
	if st.Get("read:/usr/lib").Bytes != 18*832 {
		t.Errorf("bytes = %d", st.Get("read:/usr/lib").Bytes)
	}

	// Render with both coloring strategies.
	dot := RenderDOT(g, st, StatisticsColoring{Stats: st})
	if !strings.Contains(dot, "digraph") {
		t.Errorf("dot broken")
	}
	full, part := in.PartitionByCID("a")
	if part.Node("read:/etc/passwd") != Red {
		t.Errorf("partition class = %v", part.Node("read:/etc/passwd"))
	}
	txt := RenderText(full, in.Stats(), part)
	if !strings.Contains(txt, "[red]") {
		t.Errorf("text lacks partition annotation:\n%s", txt)
	}
}

func TestPublicHelpers(t *testing.T) {
	_, cb, _ := lssim.Both(lssim.Config{})
	m := CallTopDirs{Depth: 2}
	tl := Timeline(cb, m, "read:/usr/lib")
	if len(tl) != 9 {
		t.Fatalf("timeline = %d", len(tl))
	}
	if mc := MaxConcurrency(tl); mc != 2 {
		t.Errorf("mc = %d", mc)
	}
	if out := RenderTimeline(tl); !strings.Contains(out, "#") {
		t.Errorf("timeline render broken")
	}
	g := BuildDFG(cb, m)
	if g.NumTraces() != 3 {
		t.Errorf("traces = %d", g.NumTraces())
	}
	st := ComputeStats(cb, RestrictCalls(m, "write"))
	if len(st.Activities()) != 1 {
		t.Errorf("restricted stats = %v", st.Activities())
	}
	env := NewEnvMapping(0, PrefixVar{Prefix: "/usr", Var: "$USR"})
	if got := env.Abstract("/usr/lib/x"); got != "$USR" {
		t.Errorf("env abstraction = %q", got)
	}
	if got := RestrictPath(m, "/nope"); got == nil {
		t.Errorf("RestrictPath nil")
	}
	if Start.IsVirtual() != true || End.IsVirtual() != true {
		t.Errorf("virtual markers broken")
	}
	var e Event
	if e.Size != 0 || SizeUnknown != -1 {
		t.Errorf("constants broken")
	}
}

func TestFacadeCoverage(t *testing.T) {
	caLog, cbLog, _ := lssim.Both(lssim.Config{})

	m := CallTopDirs{Depth: 2}
	full := BuildDFG(trace.MustUnion(caLog, cbLog), m)
	g := BuildDFG(caLog, m)
	r := BuildDFG(cbLog, m)
	p := Classify(full, g, r)
	if p.Node("read:/etc/passwd") != Red {
		t.Errorf("Classify facade broken")
	}
	fp := NewFootprint(full)
	if len(fp.Activities) == 0 {
		t.Errorf("NewFootprint facade broken")
	}
	if out := RenderMermaid(full, nil, PlainStyle{}); !strings.Contains(out, "flowchart") {
		t.Errorf("RenderMermaid facade broken")
	}
	tl := Timeline(cbLog, m, "read:/usr/lib")
	if out := RenderTimelineSVG(tl, "t"); !strings.Contains(out, "<svg") {
		t.Errorf("RenderTimelineSVG facade broken")
	}
	// DXT ingestion through the facade.
	dxtText := "# DXT, file_name: /f\n# DXT, hostname: h\n X_POSIX 0 write 0 0 100 0.001 0.002\n"
	in, err := FromDXT("x", strings.NewReader(dxtText), OpenOptions{})
	if err != nil || in.EventLog().NumEvents() != 1 {
		t.Errorf("FromDXT facade: %v", err)
	}
	if _, err := FromDXT("x", strings.NewReader("garbage line"), OpenOptions{}); err == nil {
		t.Errorf("FromDXT accepted garbage")
	}
	// A dump has no case index to slice.
	if _, err := FromDXT("x", strings.NewReader(dxtText), OpenOptions{Cases: &CaseRange{End: 1}}); err == nil {
		t.Errorf("FromDXT accepted a case range")
	}
}

func TestMergeArchivesFacade(t *testing.T) {
	dir := t.TempDir()
	ca, _, _ := lssim.Both(lssim.Config{})
	a := filepath.Join(dir, "a.sta")
	b := filepath.Join(dir, "b.sta")
	if err := WriteArchive(a, ca); err != nil {
		t.Fatal(err)
	}
	other, _, _ := lssim.Both(lssim.Config{Host: "otherhost"})
	if err := WriteArchive(b, other); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "m.sta")
	if err := MergeArchives(dst, a, b); err != nil {
		t.Fatalf("MergeArchives: %v", err)
	}
	got, err := FromArchive(dst, OpenOptions{})
	if err != nil || got.EventLog().NumCases() != 6 {
		t.Fatalf("merged = %v, err %v", got, err)
	}
}

// TestArchiveV1Rejected: the facade surfaces a retired v1 archive as
// ErrArchiveV1 from both the materializing and the streaming entry
// points.
func TestArchiveV1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.sta")
	if err := os.WriteFile(path, []byte("STA1\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromArchive(path, OpenOptions{}); !errors.Is(err, ErrArchiveV1) {
		t.Errorf("FromArchive(v1) = %v, want ErrArchiveV1", err)
	}
	if _, err := StreamArchive(path, OpenOptions{}); !errors.Is(err, ErrArchiveV1) {
		t.Errorf("StreamArchive(v1) = %v, want ErrArchiveV1", err)
	}
}
