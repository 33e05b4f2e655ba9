package render

import (
	"strings"
	"testing"
	"time"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
)

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{0, "0 B"},
		{999, "999 B"},
		{750, "750 B"},
		{14980, "14.98 KB"},
		{2870, "2.87 KB"},
		{825820000, "825.82 MB"},
		{9660000000, "9.66 GB"},
		{4831838208, "4.83 GB"}, // 96 ranks × 3 segments × 16 MiB, as in Fig. 8b
		{2500000000000, "2.50 TB"},
	}
	for _, tc := range tests {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestFormatRateAndLoad(t *testing.T) {
	if got := formatRateMBs(10.15e6); got != "10.15 MB/s" {
		t.Errorf("formatRateMBs = %q", got)
	}
	if got := formatRateMBs(0.61e6); got != "0.61 MB/s" {
		t.Errorf("formatRateMBs small = %q", got)
	}
	if got := FormatLoad(0.22, 14980, true); got != "Load:0.22 (14.98 KB)" {
		t.Errorf("FormatLoad = %q", got)
	}
	if got := FormatLoad(0.55, 0, false); got != "Load:0.55" {
		t.Errorf("FormatLoad sizeless = %q", got)
	}
	if got := FormatDR(2, 10.15e6); got != "DR: 2x10.15 MB/s" {
		t.Errorf("FormatDR = %q", got)
	}
}

func TestFormatDuration(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{203 * time.Microsecond, "203µs"},
		{5 * time.Millisecond, "5.00ms"},
		{1500 * time.Millisecond, "1.500s"},
	}
	for _, tc := range tests {
		if got := FormatDuration(tc.d); got != tc.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// tinyPipeline builds a two-activity log/graph/stats set for rendering
// tests.
func tinyPipeline(t *testing.T) (*dfg.Graph, *stats.Stats, pm.Mapping) {
	t.Helper()
	var cases []*trace.Case
	for rid := 0; rid < 2; rid++ {
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "x", Host: "h", RID: rid}, []trace.Event{
			{Call: "read", FP: "/usr/lib/libc.so.6", Start: 0, Dur: 200 * time.Microsecond, Size: 832},
			{Call: "write", FP: "/dev/pts/7", Start: time.Millisecond, Dur: 100 * time.Microsecond, Size: 50},
		}))
	}
	el := trace.MustNewEventLog(cases...)
	m := pm.CallTopDirs{Depth: 2}
	l := pm.Build(el, m, pm.BuildOptions{Endpoints: true})
	c := stats.NewComputer(m)
	for _, cs := range el.Cases() {
		c.Add(cs)
	}
	return dfg.Build(l), c.Finalize(), m
}

func TestDOTOutput(t *testing.T) {
	g, s, _ := tinyPipeline(t)
	out := RenderDOT(g, s, StatisticsColoring{Stats: s})
	for _, want := range []string{
		"digraph",
		"read\\n/usr/lib",
		"write\\n/dev/pts",
		"Load:",
		"DR: 2x",
		"->",
		"fillcolor=",
		string(pm.Start),
		string(pm.End),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	if out != RenderDOT(g, s, StatisticsColoring{Stats: s}) {
		t.Errorf("DOT output is not deterministic")
	}
}

func TestDOTSkipCalls(t *testing.T) {
	g, s, _ := tinyPipeline(t)
	var b strings.Builder
	d := &DOT{Graph: g, Stats: s, SkipCalls: map[string]bool{"write": true}}
	if err := d.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "/dev/pts") {
		t.Errorf("skipped call still rendered:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "/usr/lib") {
		t.Errorf("unskipped node missing")
	}
}

func TestDOTNilGraph(t *testing.T) {
	d := &DOT{}
	if err := d.Render(&strings.Builder{}); err == nil {
		t.Errorf("nil graph accepted")
	}
}

func TestStatisticsColoringShades(t *testing.T) {
	g, s, _ := tinyPipeline(t)
	c := StatisticsColoring{Stats: s}
	var readA, writeA pm.Activity
	for _, a := range g.Nodes() {
		call, _ := a.Parts()
		switch call {
		case "read":
			readA = a
		case "write":
			writeA = a
		}
	}
	readStyle, writeStyle := c.Node(readA), c.Node(writeA)
	if readStyle.FillColor == "" || writeStyle.FillColor == "" {
		t.Fatalf("missing fills: %+v %+v", readStyle, writeStyle)
	}
	// read has 2/3 of the duration: its shade must be darker (smaller
	// channel values) than write's.
	if readStyle.FillColor >= writeStyle.FillColor {
		t.Errorf("read shade %s not darker than write shade %s", readStyle.FillColor, writeStyle.FillColor)
	}
	// The activity with the max relative duration gets the darkest
	// shade and a white font.
	if readStyle.FontColor != "#ffffff" {
		t.Errorf("max-load node should flip font color, got %q", readStyle.FontColor)
	}
	if st := c.Node(pm.Start); st.FillColor != "" {
		t.Errorf("virtual node colored: %+v", st)
	}
}

func TestPartitionColoring(t *testing.T) {
	g, _, _ := tinyPipeline(t)
	// Fabricate subset graphs: green holds only read, red only write.
	var readA, writeA pm.Activity
	for _, a := range g.Nodes() {
		call, _ := a.Parts()
		switch call {
		case "read":
			readA = a
		case "write":
			writeA = a
		}
	}
	gGreen := dfg.Build(&pm.Log{})
	gGreen.AddNode(readA, 1)
	gRed := dfg.Build(&pm.Log{})
	gRed.AddNode(writeA, 1)
	c := PartitionColoring{Partition: dfg.Classify(g, gGreen, gRed)}
	if st := c.Node(readA); st.FillColor != greenFill {
		t.Errorf("read style = %+v, want green", st)
	}
	if st := c.Node(writeA); st.FillColor != redFill {
		t.Errorf("write style = %+v, want red", st)
	}
	if st := c.Node(pm.Start); st.FillColor != "" {
		t.Errorf("virtual node colored")
	}
	e := dfg.Edge{From: readA, To: writeA}
	if es := c.Edge(e); es.Color != "" {
		t.Errorf("shared edge colored: %+v", es)
	}
}

func TestTextRender(t *testing.T) {
	g, s, _ := tinyPipeline(t)
	out := RenderText(g, s, nil)
	for _, want := range []string{"read:/usr/lib", "write:/dev/pts", "--2-->", "Load:", "events=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsTable(t *testing.T) {
	_, s, _ := tinyPipeline(t)
	out := StatsTable(s)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// Sorted by descending relative duration: read first.
	if !strings.Contains(lines[1], "read:/usr/lib") {
		t.Errorf("first data row = %q, want read:/usr/lib", lines[1])
	}
	if !strings.Contains(out, "MB/s") {
		t.Errorf("rates missing:\n%s", out)
	}
}

func TestTimelinePlot(t *testing.T) {
	id1 := trace.CaseID{CID: "b", Host: "h", RID: 9157}
	id2 := trace.CaseID{CID: "b", Host: "h", RID: 9158}
	intervals := []trace.Interval{
		{Start: 0, End: time.Millisecond, Case: id1},
		{Start: 2 * time.Millisecond, End: 3 * time.Millisecond, Case: id1},
		{Start: time.Millisecond, End: 4 * time.Millisecond, Case: id2},
	}
	out := RenderTimeline(intervals)
	if !strings.Contains(out, "b_h_9157") || !strings.Contains(out, "b_h_9158") {
		t.Errorf("rows missing:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("bars missing:\n%s", out)
	}
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(rows) != 3 { // two case rows + axis
		t.Errorf("rows = %d:\n%s", len(rows), out)
	}
	if got := RenderTimeline(nil); !strings.Contains(got, "no events") {
		t.Errorf("empty timeline = %q", got)
	}
}

func TestTimelineShortEventVisible(t *testing.T) {
	id := trace.CaseID{CID: "c", Host: "h", RID: 1}
	// A very short event within a long span must still paint one cell.
	intervals := []trace.Interval{
		{Start: 0, End: 10 * time.Second, Case: id},
		{Start: 5 * time.Second, End: 5*time.Second + time.Microsecond, Case: trace.CaseID{CID: "c", Host: "h", RID: 2}},
	}
	out := RenderTimeline(intervals)
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "c_h_2") && !strings.Contains(line, "#") {
			t.Errorf("short event invisible: %q", line)
		}
	}
}
