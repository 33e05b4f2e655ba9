package report

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// hostileLog builds a log whose attacker-reachable strings — file paths
// (which become activity names) and case identities — carry HTML/JS
// payloads.
func hostileLog() *trace.EventLog {
	evil := `/data/<script>alert(1)</script>/x.bin`
	c1 := trace.NewCase(trace.CaseID{CID: `a"><img src=x onerror=alert(2)>`, Host: "h<b>", RID: 1}, []trace.Event{
		{PID: 1, Call: "read", Start: 0, Dur: 5 * time.Microsecond, FP: evil, Size: 64},
		{PID: 1, Call: "write", Start: 10 * time.Microsecond, Dur: 5 * time.Microsecond, FP: evil, Size: 32},
	})
	c2 := trace.NewCase(trace.CaseID{CID: "b&amp", Host: "h", RID: 2}, []trace.Event{
		{PID: 2, Call: "read", Start: 0, Dur: 7 * time.Microsecond, FP: evil, Size: 16},
	})
	return trace.MustNewEventLog(c1, c2)
}

// TestGenerateHTMLEscaping: no payload may reach the document
// unescaped — not through the title, the activity table, the case
// table, the Mermaid block, or the embedded SVG timeline (the one
// template.HTML injection point, which relies on the SVG renderer's own
// escaping).
func TestGenerateHTMLEscapingHostileData(t *testing.T) {
	res, d := analyze(t, hostileLog(), pm.CallTopDirs{Depth: 2})
	var b strings.Builder
	err := GenerateHTML(&b, res, d, Options{
		Title:    `Report <script>alert(0)</script> & more`,
		Timeline: `read:/data/<script>alert(1)</script>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, raw := range []string{
		"<script>alert(0)</script>", // title
		"<script>alert(1)</script>", // file path via activities, Mermaid, SVG
		"<img src=x onerror",        // case id in the straggler table
	} {
		if strings.Contains(out, raw) {
			t.Errorf("unescaped payload %q reached the HTML report", raw)
		}
	}
	for _, want := range []string{
		"Report &lt;script&gt;alert(0)&lt;/script&gt; &amp; more", // escaped title
		"&lt;script&gt;alert(1)&lt;/script&gt;",                   // escaped activity path
	} {
		if !strings.Contains(out, want) {
			t.Errorf("escaped form %q missing from the HTML report", want)
		}
	}
	// The hostile data must still be reported, not dropped.
	if !strings.Contains(out, "alert") {
		t.Error("hostile activity vanished from the report entirely")
	}
}

// TestGenerateHTMLEmptyLog pins the empty-log behavior: a report over
// zero cases renders a complete, well-formed document instead of
// failing.
func TestGenerateHTMLEmptyLog(t *testing.T) {
	res, d := analyze(t, trace.MustNewEventLog(), pm.CallTopDirs{Depth: 2})
	var b strings.Builder
	if err := GenerateHTML(&b, res, d, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<title>I/O inspection report</title>",
		"<tr><th>cases</th><td>0</td></tr>",
		"flowchart TB",
		"</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty-log HTML report missing %q", want)
		}
	}
}

// TestGenerateTextEmptyLog: the text report over zero cases must also
// succeed and carry the overview section.
func TestGenerateTextEmptyLog(t *testing.T) {
	res, d := analyze(t, trace.MustNewEventLog(), pm.CallTopDirs{Depth: 2})
	var b strings.Builder
	if err := Generate(&b, res, d, Options{Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"empty", "cases:        0"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("empty-log text report missing %q:\n%s", want, b.String())
		}
	}
}

// TestReportMappingCallsBounded: a report consults the mapping once per
// event for the fold and once for the detail fold of the same pass,
// and never again while rendering — not per hot activity, not per
// activity of the log. Over a log where every event is its own
// activity, a per-activity scan would cost activities × events mapping
// calls.
func TestReportMappingCallsBounded(t *testing.T) {
	el := synth.WideLog("wide", 4, 50, 1)
	var calls atomic.Int64
	m := pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
		calls.Add(1)
		return pm.Activity(e.Call + ":" + e.FP), true
	})
	for _, tc := range []struct {
		name string
		gen  func(io.Writer, *core.StreamResult, *stats.Detail, Options) error
	}{
		{"text", Generate},
		{"html", GenerateHTML},
	} {
		calls.Store(0)
		res, d := analyze(t, el, m)
		first := el.Cases()[0].Events[0]
		if err := tc.gen(io.Discard, res, d, Options{Timeline: pm.Activity(first.Call + ":" + first.FP)}); err != nil {
			t.Fatal(err)
		}
		limit := 2 * int64(el.NumEvents())
		if got := calls.Load(); got > limit {
			t.Errorf("%s report: %d mapping calls over %d events, want at most %d", tc.name, got, el.NumEvents(), limit)
		}
	}
}
