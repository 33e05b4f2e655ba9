package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stinspector"
	"stinspector/internal/cliutil"
	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// reference renders, from the library's in-memory Inspector and its
// mapping m, what one subcommand prints: the output the CLI's streamed
// fold must reproduce byte for byte.
type reference struct {
	args []string
	want func(in *stinspector.Inspector, m stinspector.Mapping) string
}

// partitionA is the reference Equation (18) comparison of the cases of
// CID "a" with the rest, built the independent way: partition the
// event-log, build the full, G and R graphs from their own event-logs,
// and classify. The CLI splits one folded activity-log instead.
func partitionA(in *stinspector.Inspector, m stinspector.Mapping) (full *stinspector.DFG, part *stinspector.Partition) {
	gl, rl := in.EventLog().Partition(func(c *stinspector.Case) bool { return c.ID.CID == "a" })
	full = buildDFG(in.EventLog(), m)
	return full, stinspector.Classify(full, buildDFG(gl, m), buildDFG(rl, m))
}

// buildDFG synthesizes an event-log's DFG through the materializing
// activity-log and graph builders, not through the fold.
func buildDFG(el *stinspector.EventLog, m stinspector.Mapping) *stinspector.DFG {
	return dfg.Build(pm.Build(el, m, pm.BuildOptions{Endpoints: true}))
}

var references = []reference{
	{args: []string{"dfg"}, want: func(in *stinspector.Inspector, _ stinspector.Mapping) string {
		return stinspector.RenderText(in.DFG(), in.Stats(), nil)
	}},
	{args: []string{"dfg", "-format", "dot"}, want: func(in *stinspector.Inspector, _ stinspector.Mapping) string {
		st := in.Stats()
		return stinspector.RenderDOT(in.DFG(), st, stinspector.StatisticsColoring{Stats: st})
	}},
	{args: []string{"dfg", "-format", "mermaid"}, want: func(in *stinspector.Inspector, _ stinspector.Mapping) string {
		st := in.Stats()
		return stinspector.RenderMermaid(in.DFG(), st, stinspector.StatisticsColoring{Stats: st})
	}},
	{args: []string{"stats"}, want: func(in *stinspector.Inspector, _ stinspector.Mapping) string {
		return statsTable(in.Stats())
	}},
	{args: []string{"variants"}, want: func(in *stinspector.Inspector, _ stinspector.Mapping) string {
		var b strings.Builder
		for _, v := range in.ActivityLog().Variants() {
			fmt.Fprintf(&b, "%4d× %s\n", v.Mult, v.Seq)
		}
		return b.String()
	}},
	{args: []string{"behavior"}, want: func(in *stinspector.Inspector, _ stinspector.Mapping) string {
		return in.Behavior().RenderText()
	}},
	{args: []string{"footprint"}, want: func(in *stinspector.Inspector, _ stinspector.Mapping) string {
		return stinspector.NewFootprint(in.DFG()).String()
	}},
	{args: []string{"footprint", "-green", "a"}, want: func(in *stinspector.Inspector, m stinspector.Mapping) string {
		gl, rl := in.EventLog().Partition(func(c *stinspector.Case) bool { return c.ID.CID == "a" })
		gf := stinspector.NewFootprint(stinspector.FromEventLog(gl).WithMapping(m).DFG())
		rf := stinspector.NewFootprint(stinspector.FromEventLog(rl).WithMapping(m).DFG())
		var b strings.Builder
		fmt.Fprintf(&b, "structural similarity: %.3f\n", gf.Similarity(rf))
		for _, d := range gf.Diff(rf) {
			fmt.Fprintf(&b, "  %s vs %s:  green %s, red %s\n", d.A, d.B, d.Left, d.Rite)
		}
		return b.String()
	}},
	{args: []string{"compare", "-green", "a"}, want: func(in *stinspector.Inspector, m stinspector.Mapping) string {
		full, part := partitionA(in, m)
		return stinspector.RenderText(full, in.Stats(), part)
	}},
	{args: []string{"compare", "-green", "a", "-format", "dot"}, want: func(in *stinspector.Inspector, m stinspector.Mapping) string {
		full, part := partitionA(in, m)
		return stinspector.RenderDOT(full, in.Stats(), stinspector.PartitionColoring{Partition: part})
	}},
}

// detailReference renders, from the Inspector or the per-case detail d
// folded from its event-log, what one per-event detail subcommand
// prints for activity a; with act set, the CLI gets "-activity a".
type detailReference struct {
	args []string
	act  bool
	want func(in *stinspector.Inspector, d *stats.Detail, a stinspector.Activity) string
}

var detailReferences = []detailReference{
	{args: []string{"dist"}, act: true, want: func(_ *stinspector.Inspector, d *stats.Detail, a stinspector.Activity) string {
		dist, ok := d.Distribution(a)
		if !ok {
			return "no distribution"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "activity:   %s\n", dist.Activity)
		fmt.Fprintf(&b, "events:     %d\n", dist.Events)
		fmt.Fprintf(&b, "min/p50:    %v / %v\n", dist.Min, dist.P50)
		fmt.Fprintf(&b, "p95/p99:    %v / %v\n", dist.P95, dist.P99)
		fmt.Fprintf(&b, "max/total:  %v / %v\n", dist.Max, dist.Total)
		fmt.Fprintf(&b, "tail share: %.2f (fraction of time in the slowest 5%% of calls)\n", dist.TailShare)
		return b.String()
	}},
	{args: []string{"percase"}, act: true, want: func(_ *stinspector.Inspector, d *stats.Detail, a stinspector.Activity) string {
		return perCaseTable(d, a)
	}},
	{args: []string{"percase"}, want: func(_ *stinspector.Inspector, d *stats.Detail, _ stinspector.Activity) string {
		return perCaseTable(d, "")
	}},
	{args: []string{"timeline"}, act: true, want: func(in *stinspector.Inspector, _ *stats.Detail, a stinspector.Activity) string {
		tl := in.Timeline(a)
		return stinspector.RenderTimeline(tl) + fmt.Sprintf("max-concurrency: %d\n", stinspector.MaxConcurrency(tl))
	}},
	{args: []string{"timeline", "-format", "svg"}, act: true, want: func(in *stinspector.Inspector, _ *stats.Detail, a stinspector.Activity) string {
		return stinspector.RenderTimelineSVG(in.Timeline(a), string(a))
	}},
}

func perCaseTable(d *stats.Detail, a stinspector.Activity) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %14s %14s\n", "CASE", "EVENTS", "TOTALDUR", "BYTES")
	for _, r := range d.PerCase(a) {
		fmt.Fprintf(&b, "%-28s %8d %14v %14d\n", r.Case, r.Events, r.TotalDur, r.Bytes)
	}
	return b.String()
}

// busiest is the activity with the most events (the first such in the
// statistics' order), so every input row has one to query.
func busiest(in *stinspector.Inspector) stinspector.Activity {
	var best stinspector.Activity
	n := 0
	for _, a := range in.Stats().Activities() {
		if s := in.Stats().Get(a); s.Events > n {
			best, n = a, s.Events
		}
	}
	return best
}

// referenceDir writes the reference corpus: the ls / ls -l demo (CIDs
// a and b) plus a heavytail set (CID c, eight calls), so -green a,
// -filter and -calls all cut something.
func referenceDir(t *testing.T) string {
	t.Helper()
	dir := demoDir(t)
	ht, _ := profiles.Lookup("heavytail")
	if err := strace.WriteDir(dir, ht.Generate("c", 5, 60, 3)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunMatchesInspector pins the CLI's one pipeline to the library's
// in-memory Inspector: every fold subcommand, footprint -green and
// compare included, and every per-event detail subcommand prints
// exactly what the Inspector renders, over every input backend, merged
// snapshots, and the filter and mapping flags. Merged snapshots hold no
// per-event data, so the detail subcommands reject them as usage
// errors. It also pins the info line, whose leading part is the
// Inspector's Summary.
func TestRunMatchesInspector(t *testing.T) {
	dir := referenceDir(t)
	tmp := t.TempDir()
	sta := filepath.Join(tmp, "log.sta")
	if err := run([]string{"archive", "-traces", dir, "-o", sta}); err != nil {
		t.Fatal(err)
	}
	dxtFile := filepath.Join(tmp, "trace.dxt")
	if err := os.WriteFile(dxtFile, []byte(`# DXT, file_id: 1, file_name: /p/scratch/u/out
# DXT, rank: 0, hostname: n1
 X_POSIX 0 write 0 0 1048576 0.001000 0.004000
 X_POSIX 0 read 1 0 1048576 0.005000 0.007000
# DXT, file_id: 2, file_name: /p/home/u/in
# DXT, rank: 1, hostname: n2
 X_POSIX 1 read 0 0 4096 0.002000 0.003000
`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two snapshot parts over disjoint halves of the trace directory.
	a, b := splitDir(t, copyDir(t, dir))
	p1, p2 := filepath.Join(tmp, "p1.sts"), filepath.Join(tmp, "p2.sts")
	for _, part := range [][2]string{{a, p1}, {b, p2}} {
		if err := run([]string{"snapshot", "-traces", part[0], "-o", part[1]}); err != nil {
			t.Fatal(err)
		}
	}

	fromDir := func(t *testing.T) *stinspector.Inspector {
		in, err := stinspector.FromStraceDir(dir, stinspector.ParseOptions{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	fromDXT := func(t *testing.T) *stinspector.Inspector {
		f, err := os.Open(dxtFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		in, err := stinspector.FromDXT("a", f, stinspector.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	inputs := []struct {
		name  string
		flags []string
		ref   func(t *testing.T) *stinspector.Inspector
		// peak is the info line's resident peak at -j 1 -window 1: one
		// case for a stream, none for merged snapshots.
		peak int
		// m is the mapping the flags select; nil is FromEventLog's f̂.
		m stinspector.Mapping
	}{
		{"traces", []string{"-traces", dir}, fromDir, 1, nil},
		{"archive", []string{"-archive", sta}, fromDir, 1, nil},
		{"archive cases", []string{"-archive", sta, "-cases", "2:6"}, func(t *testing.T) *stinspector.Inspector {
			return loadArchive(t, sta, stinspector.OpenOptions{Cases: &stinspector.CaseRange{Start: 2, End: 6}})
		}, 1, nil},
		{"dxt", []string{"-dxt", dxtFile, "-cid", "a"}, fromDXT, 1, nil},
		{"merged snapshots", []string{"-merge-snapshots", p1 + "," + p2}, fromDir, 0, nil},
		{"filter", []string{"-traces", dir, "-filter", "/usr/lib"}, func(t *testing.T) *stinspector.Inspector {
			return fromDir(t).FilterPath("/usr/lib")
		}, 1, nil},
		{"calls", []string{"-archive", sta, "-calls", "read,openat"}, func(t *testing.T) *stinspector.Inspector {
			return stinspector.FromEventLog(fromDir(t).EventLog().FilterCalls("read", "openat"))
		}, 1, nil},
		{"map file:1", []string{"-traces", dir, "-map", "file:1"}, func(t *testing.T) *stinspector.Inspector {
			return fromDir(t).WithMapping(stinspector.CallFileName{Keep: 1})
		}, 1, stinspector.CallFileName{Keep: 1}},
	}
	for _, input := range inputs {
		in := input.ref(t)
		m := input.m
		if m == nil {
			m = stinspector.CallTopDirs{Depth: 2}
		}
		for _, r := range references {
			args := append(append([]string{}, r.args...), input.flags...)
			got := captureStdout(t, func() error { return run(args) })
			if want := r.want(in, m); got != want {
				t.Errorf("%s: stinspect %s differs from the Inspector:\ngot  %q\nwant %q",
					input.name, strings.Join(r.args, " "), got, want)
			}
		}
		act := busiest(in)
		d := stats.NewDetail(m)
		for _, c := range in.EventLog().Cases() {
			d.Add(c)
		}
		for _, r := range detailReferences {
			args := append(append([]string{}, r.args...), input.flags...)
			if r.act {
				args = append(args, "-activity", string(act))
			}
			if input.peak == 0 {
				if code := cliutil.Report(io.Discard, "test", run(args)); code != 2 {
					t.Errorf("%s: stinspect %s exits %d, want 2", input.name, strings.Join(args, " "), code)
				}
				continue
			}
			got := captureStdout(t, func() error { return run(args) })
			if want := r.want(in, d, act); got != want {
				t.Errorf("%s: stinspect %s differs from the Inspector:\ngot  %q\nwant %q",
					input.name, strings.Join(args, " "), got, want)
			}
		}
		args := append([]string{"info", "-j", "1", "-window", "1"}, input.flags...)
		got := captureStdout(t, func() error { return run(args) })
		// Every activity symbol plus the virtual start and end.
		acts := len(in.Stats().Activities())
		want := fmt.Sprintf("%s; %d activities, peak %d cases resident, %d run symbols\n",
			in.Summary(), acts, input.peak, acts+2)
		if got != want {
			t.Errorf("%s: info = %q, want %q", input.name, got, want)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the report golden files")

// orderDir writes a corpus whose first case opens with an activity that
// sorts after the ones it sees later (write:/z before openat:/a), so
// the fold's first-use symbol order differs from the string order the
// variants are listed in.
func orderDir(t *testing.T) string {
	t.Helper()
	ev := func(call, fp string) trace.Event {
		return trace.Event{PID: 1, Call: call, Dur: time.Millisecond, FP: fp, Size: 8}
	}
	var cases []*trace.Case
	for rid, evs := range [][]trace.Event{
		{ev("write", "/z/out"), ev("openat", "/a/in"), ev("read", "/a/in")},
		{ev("openat", "/a/in"), ev("read", "/a/in"), ev("write", "/z/out")},
		{ev("openat", "/a/in"), ev("read", "/a/in"), ev("write", "/z/out")},
		{ev("read", "/a/in")},
	} {
		for i := range evs {
			evs[i].Start = time.Duration(i+1) * time.Second
		}
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "o", Host: "h", RID: rid + 1}, evs))
	}
	log, err := trace.NewEventLog(cases...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := strace.WriteDir(dir, log); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunReportGolden pins both report renderings over the reference
// corpus, and the variant listing over orderDir's, to golden files,
// each read from the trace directory and from its archive alike.
// Regenerate with -update after an intended change.
func TestRunReportGolden(t *testing.T) {
	archived := func(dir string) string {
		sta := filepath.Join(t.TempDir(), "log.sta")
		if err := run([]string{"archive", "-traces", dir, "-o", sta}); err != nil {
			t.Fatal(err)
		}
		return sta
	}
	ref, order := referenceDir(t), orderDir(t)
	refSTA, orderSTA := archived(ref), archived(order)
	for _, tc := range []struct {
		golden   string
		args     []string
		dir, sta string
	}{
		{"report.txt", []string{"report"}, ref, refSTA},
		{"report.html", []string{"report", "-format", "html", "-green", "a", "-activity", "read:/usr/lib"}, ref, refSTA},
		{"variants.txt", []string{"variants"}, order, orderSTA},
	} {
		path := filepath.Join("testdata", tc.golden)
		for _, input := range [][]string{{"-traces", tc.dir}, {"-archive", tc.sta}} {
			args := append(append([]string{}, tc.args...), input...)
			got := captureStdout(t, func() error { return run(args) })
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s (run with -update): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("stinspect %s differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
					strings.Join(args, " "), path, got, want)
			}
		}
	}
}

// copyDir copies a flat directory of files into a fresh temp directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
