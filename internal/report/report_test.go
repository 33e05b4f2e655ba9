package report

import (
	"strings"
	"testing"

	"stinspector/internal/core"
	"stinspector/internal/lssim"
	"stinspector/internal/pm"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
)

// analyze runs the one pass a report reads, the way stinspect does: the
// analysis fold over the log's cases, with every case also added to the
// detail fold as the fold reads it.
func analyze(t *testing.T, el *trace.EventLog, m pm.Mapping) (*core.StreamResult, *stats.Detail) {
	t.Helper()
	d := stats.NewDetail(m)
	src := source.FilterCases(source.FromLog(el), func(c *trace.Case) bool {
		d.Add(c)
		return true
	})
	res, err := core.AnalyzeStreamParallel(src, m, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

// demo is the report input of the ls / ls -l demo under f̂.
func demo(t *testing.T) (*core.StreamResult, *stats.Detail) {
	_, _, cx := lssim.Both(lssim.Config{})
	return analyze(t, cx, pm.CallTopDirs{Depth: 2})
}

func TestGenerateBasic(t *testing.T) {
	res, d := demo(t)
	var b strings.Builder
	if err := Generate(&b, res, d, Options{Title: "ls vs ls -l"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ls vs ls -l",
		"Overview",
		"cases:        6",
		"events:       75",
		"Hot activities",
		"read:/proc/filesystems", // the hottest activity leads
		"Slowest processes",
		"Directly-Follows-Graph",
		"Load:",
		"p50=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Hot activities are sorted: proc/filesystems (0.27) before
	// usr/lib (0.22).
	iProc := strings.Index(out, "read:/proc/filesystems")
	iLib := strings.Index(out, "read:/usr/lib")
	if iProc < 0 || iLib < 0 || iProc > iLib {
		t.Errorf("hot activities out of order (proc at %d, lib at %d)", iProc, iLib)
	}
}

func TestGenerateWithPartitionAndTimelines(t *testing.T) {
	res, d := demo(t)
	var b strings.Builder
	err := Generate(&b, res, d, Options{
		GreenCIDs: []string{"a"},
		Timeline:  "read:/usr/lib",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"partition: green = {a}",
		"0 green / 4 red",
		"[red]",
		"Timeline of read:/usr/lib",
		"#",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestGenerateTruncation(t *testing.T) {
	res, d := demo(t)
	acts := len(res.Stats.Activities())
	for _, top := range []int{2, 3} {
		s := summarize(res, d, Options{}, top)
		if len(s.Activities) != top || s.Omitted != acts-top {
			t.Errorf("top %d: %d activity rows, %d omitted; want %d and %d", top, len(s.Activities), s.Omitted, top, acts-top)
		}
		if len(s.CaseRows) != top {
			t.Errorf("top %d: %d case rows", top, len(s.CaseRows))
		}
	}

	// Under call + file name the demo has 10 activities: the text
	// report shows 8 and notes the other 2. All 6 processes fit.
	_, _, cx := lssim.Both(lssim.Config{})
	res, d = analyze(t, cx, pm.CallFileName{Keep: 1})
	var b strings.Builder
	if err := Generate(&b, res, d, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "(2 further activities omitted)") {
		t.Errorf("truncation note missing")
	}
	section := out[strings.Index(out, "Slowest processes"):]
	section = section[:strings.Index(section, "Directly-Follows-Graph")]
	if got := strings.Count(section, "_host1_"); got != 6 {
		t.Errorf("case rows = %d, want 6", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b strings.Builder
	res, d := demo(t)
	if err := Generate(&a, res, d, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Generate(&b, res, d, Options{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("report not deterministic")
	}
}

func TestGenerateHTML(t *testing.T) {
	res, d := demo(t)
	var b strings.Builder
	err := GenerateHTML(&b, res, d, Options{
		Title:     "html demo",
		GreenCIDs: []string{"a"},
		Timeline:  "read:/usr/lib",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<title>html demo</title>",
		"Hot activities",
		"read:/proc/filesystems",
		"flowchart TB",
		"partition: green = {a}",
		"<svg",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
	// The hottest activity heads the table.
	iProc := strings.Index(out, "<td>read:/proc/filesystems</td>")
	iLib := strings.Index(out, "<td>read:/usr/lib</td>")
	if iProc < 0 || iLib < 0 || iProc > iLib {
		t.Errorf("activity order wrong (proc %d, lib %d)", iProc, iLib)
	}
}

func TestGenerateHTMLEscaping(t *testing.T) {
	res, d := demo(t)
	var b strings.Builder
	if err := GenerateHTML(&b, res, d, Options{Title: `<script>alert(1)</script>`}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "<script>alert") {
		t.Errorf("title not escaped")
	}
}
