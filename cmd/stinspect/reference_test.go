package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector"
	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/strace"
	"stinspector/internal/synth/profiles"
)

// reference renders, from the library's in-memory Inspector, what one
// subcommand prints: the output the CLI's streamed fold must reproduce
// byte for byte.
type reference struct {
	args []string
	want func(in *stinspector.Inspector) string
}

// partitionA is the reference Equation (18) comparison of the cases of
// CID "a" with the rest, built the independent way: partition the
// event-log, build the full, G and R graphs from their own event-logs,
// and classify. The CLI splits one folded activity-log instead.
func partitionA(in *stinspector.Inspector) (full *stinspector.DFG, part *stinspector.Partition) {
	gl, rl := in.EventLog().Partition(func(c *stinspector.Case) bool { return c.ID.CID == "a" })
	m := in.Mapping()
	full = buildDFG(in.EventLog(), m)
	return full, stinspector.Classify(full, buildDFG(gl, m), buildDFG(rl, m))
}

// buildDFG synthesizes an event-log's DFG through the materializing
// activity-log and graph builders, not through the fold.
func buildDFG(el *stinspector.EventLog, m stinspector.Mapping) *stinspector.DFG {
	return dfg.Build(pm.Build(el, m, pm.BuildOptions{Endpoints: true}))
}

var references = []reference{
	{args: []string{"dfg"}, want: func(in *stinspector.Inspector) string {
		return stinspector.RenderText(in.DFG(), in.Stats(), nil)
	}},
	{args: []string{"dfg", "-format", "dot"}, want: func(in *stinspector.Inspector) string {
		st := in.Stats()
		return stinspector.RenderDOT(in.DFG(), st, stinspector.StatisticsColoring{Stats: st})
	}},
	{args: []string{"dfg", "-format", "mermaid"}, want: func(in *stinspector.Inspector) string {
		st := in.Stats()
		return stinspector.RenderMermaid(in.DFG(), st, stinspector.StatisticsColoring{Stats: st})
	}},
	{args: []string{"stats"}, want: func(in *stinspector.Inspector) string {
		return statsTable(in.Stats())
	}},
	{args: []string{"variants"}, want: func(in *stinspector.Inspector) string {
		var b strings.Builder
		for _, v := range in.ActivityLog().Variants() {
			fmt.Fprintf(&b, "%4d× %s\n", v.Mult, v.Seq)
		}
		return b.String()
	}},
	{args: []string{"behavior"}, want: func(in *stinspector.Inspector) string {
		return in.Behavior().RenderText()
	}},
	{args: []string{"footprint"}, want: func(in *stinspector.Inspector) string {
		return in.Footprint().String()
	}},
	{args: []string{"footprint", "-green", "a"}, want: func(in *stinspector.Inspector) string {
		gl, rl := in.EventLog().Partition(func(c *stinspector.Case) bool { return c.ID.CID == "a" })
		gf := stinspector.FromEventLog(gl).WithMapping(in.Mapping()).Footprint()
		rf := stinspector.FromEventLog(rl).WithMapping(in.Mapping()).Footprint()
		var b strings.Builder
		fmt.Fprintf(&b, "structural similarity: %.3f\n", gf.Similarity(rf))
		for _, d := range gf.Diff(rf) {
			fmt.Fprintf(&b, "  %s vs %s:  green %s, red %s\n", d.A, d.B, d.Left, d.Rite)
		}
		return b.String()
	}},
	{args: []string{"compare", "-green", "a"}, want: func(in *stinspector.Inspector) string {
		full, part := partitionA(in)
		return stinspector.RenderText(full, in.Stats(), part)
	}},
	{args: []string{"compare", "-green", "a", "-format", "dot"}, want: func(in *stinspector.Inspector) string {
		full, part := partitionA(in)
		return stinspector.RenderDOT(full, in.Stats(), stinspector.PartitionColoring{Partition: part})
	}},
}

// TestRunMatchesInspector pins the CLI's one pipeline to the library's
// in-memory Inspector: every fold subcommand, footprint -green and
// compare included, prints exactly what the Inspector renders, over
// every input backend, merged snapshots, and the filter and mapping
// flags. It also
// pins the info line, whose leading part is the Inspector's Summary.
func TestRunMatchesInspector(t *testing.T) {
	// The ls / ls -l demo (CIDs a and b) plus a heavytail set (CID c,
	// eight calls), so -green a, -filter and -calls all cut something.
	dir := demoDir(t)
	ht, _ := profiles.Lookup("heavytail")
	if err := strace.WriteDir(dir, ht.Generate("c", 5, 60, 3)); err != nil {
		t.Fatal(err)
	}
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
	}{
		{"traces", []string{"-traces", dir}, fromDir, 1},
		{"archive", []string{"-archive", sta}, fromDir, 1},
		{"archive cases", []string{"-archive", sta, "-cases", "2:6"}, func(t *testing.T) *stinspector.Inspector {
			in, err := stinspector.FromArchive(sta, stinspector.OpenOptions{Cases: &stinspector.CaseRange{Start: 2, End: 6}})
			if err != nil {
				t.Fatal(err)
			}
			return in
		}, 1},
		{"dxt", []string{"-dxt", dxtFile, "-cid", "a"}, fromDXT, 1},
		{"merged snapshots", []string{"-merge-snapshots", p1 + "," + p2}, fromDir, 0},
		{"filter", []string{"-traces", dir, "-filter", "/usr/lib"}, func(t *testing.T) *stinspector.Inspector {
			return fromDir(t).FilterPath("/usr/lib")
		}, 1},
		{"calls", []string{"-archive", sta, "-calls", "read,openat"}, func(t *testing.T) *stinspector.Inspector {
			return fromDir(t).FilterCalls("read", "openat")
		}, 1},
		{"map file:1", []string{"-traces", dir, "-map", "file:1"}, func(t *testing.T) *stinspector.Inspector {
			return fromDir(t).WithMapping(stinspector.CallFileName{Keep: 1})
		}, 1},
	}
	for _, input := range inputs {
		in := input.ref(t)
		for _, r := range references {
			args := append(append([]string{}, r.args...), input.flags...)
			got := captureStdout(t, func() error { return run(args) })
			if want := r.want(in); got != want {
				t.Errorf("%s: stinspect %s differs from the Inspector:\ngot  %q\nwant %q",
					input.name, strings.Join(r.args, " "), got, want)
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
