package stinspector

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector/internal/dfg"
	"stinspector/internal/lssim"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// fromArchive drains an STA file through the facade's archive stream
// into an Inspector.
func fromArchive(path string, opts OpenOptions) (*Inspector, error) {
	return load(StreamArchive(path, opts))
}

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
	back, err := fromArchive(sta, OpenOptions{})
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
	if part.Node("read:/etc/passwd") != dfg.Red {
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
	tl := FromEventLog(cb).WithMapping(m).Timeline("read:/usr/lib")
	if len(tl) != 9 {
		t.Fatalf("timeline = %d", len(tl))
	}
	if mc := MaxConcurrency(tl); mc != 2 {
		t.Errorf("mc = %d", mc)
	}
	if out := RenderTimeline(tl); !strings.Contains(out, "#") {
		t.Errorf("timeline render broken")
	}
	in := FromEventLog(cb).WithMapping(m)
	if g := in.DFG(); g.NumTraces() != 3 {
		t.Errorf("traces = %d", g.NumTraces())
	}
	writes := MappingFunc(func(e Event) (Activity, bool) {
		if e.Call != "write" {
			return "", false
		}
		return m.Map(e)
	})
	st := in.WithMapping(writes).Stats()
	if len(st.Activities()) != 1 {
		t.Errorf("partial-mapping stats = %v", st.Activities())
	}
	env := NewEnvMapping(0, PrefixVar{Prefix: "/usr", Var: "$USR"})
	if got := env.Abstract("/usr/lib/x"); got != "$USR" {
		t.Errorf("env abstraction = %q", got)
	}
}

func TestFacadeCoverage(t *testing.T) {
	caLog, cbLog, _ := lssim.Both(lssim.Config{})

	m := CallTopDirs{Depth: 2}
	full := FromEventLog(trace.MustUnion(caLog, cbLog)).WithMapping(m).DFG()
	g := FromEventLog(caLog).WithMapping(m).DFG()
	r := FromEventLog(cbLog).WithMapping(m).DFG()
	p := Classify(full, g, r)
	if p.Node("read:/etc/passwd") != dfg.Red {
		t.Errorf("Classify facade broken")
	}
	fp := NewFootprint(full)
	if len(fp.Activities) == 0 {
		t.Errorf("NewFootprint facade broken")
	}
	if out := RenderMermaid(full, nil, nil); !strings.Contains(out, "flowchart") {
		t.Errorf("RenderMermaid facade broken")
	}
	tl := FromEventLog(cbLog).WithMapping(m).Timeline("read:/usr/lib")
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

// TestArchiveV1Rejected: the facade's archive stream rejects a retired
// v1 archive with the error that says to re-archive.
func TestArchiveV1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.sta")
	if err := os.WriteFile(path, []byte("STA1\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamArchive(path, OpenOptions{}); err == nil || !strings.Contains(err.Error(), "re-archive") {
		t.Errorf("StreamArchive(v1) = %v, want the STA v1 error", err)
	}
}

// TestReadmeQuickstart: the README's quickstart code block is a verbatim
// excerpt of examples/quickstart's run body, one tab of indentation
// removed, so the documented workflow is the one the example's golden
// test runs.
func TestReadmeQuickstart(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(readme), "## Quickstart\n")
	_, rest, _ = strings.Cut(rest, "```go\n")
	block, _, _ := strings.Cut(rest, "```")
	if strings.TrimSpace(block) == "" {
		t.Fatal("README.md has no go code block under ## Quickstart")
	}
	src, err := os.ReadFile(filepath.Join("examples", "quickstart", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if body := strings.ReplaceAll(string(src), "\n\t", "\n"); !strings.Contains(body, block) {
		t.Errorf("the README quickstart block is not an excerpt of examples/quickstart/main.go:\n%s", block)
	}
}
