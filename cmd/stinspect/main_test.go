package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector"
	"stinspector/internal/cliutil"
	"stinspector/internal/lssim"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
)

// demoDir writes the ls / ls -l traces into a temp directory.
func demoDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	_, _, cx := lssim.Both(lssim.Config{})
	if err := strace.WriteDir(dir, cx); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunDFG(t *testing.T) {
	dir := demoDir(t)
	for _, format := range []string{"text", "dot"} {
		if err := run([]string{"dfg", "-traces", dir, "-format", format}); err != nil {
			t.Errorf("dfg %s: %v", format, err)
		}
	}
	if err := run([]string{"dfg", "-traces", dir, "-filter", "/usr/lib", "-map", "file:2"}); err != nil {
		t.Errorf("dfg filtered: %v", err)
	}
	if err := run([]string{"dfg", "-traces", dir, "-map", "env:/usr=$USR:1"}); err != nil {
		t.Errorf("dfg env mapping: %v", err)
	}
	if err := run([]string{"dfg", "-traces", dir, "-calls", "write"}); err != nil {
		t.Errorf("dfg call filter: %v", err)
	}
}

func TestRunStatsAndInfo(t *testing.T) {
	dir := demoDir(t)
	if err := run([]string{"stats", "-traces", dir}); err != nil {
		t.Errorf("stats: %v", err)
	}
	if err := run([]string{"info", "-traces", dir}); err != nil {
		t.Errorf("info: %v", err)
	}
	if err := run([]string{"variants", "-traces", dir}); err != nil {
		t.Errorf("variants: %v", err)
	}
	if err := run([]string{"percase", "-traces", dir, "-activity", "read:/usr/lib"}); err != nil {
		t.Errorf("percase: %v", err)
	}
	if err := run([]string{"percase", "-traces", dir}); err != nil {
		t.Errorf("percase all: %v", err)
	}
	if err := run([]string{"dfg", "-traces", dir, "-format", "mermaid"}); err != nil {
		t.Errorf("dfg mermaid: %v", err)
	}
}

func TestRunDist(t *testing.T) {
	dir := demoDir(t)
	if err := run([]string{"dist", "-traces", dir, "-activity", "read:/usr/lib"}); err != nil {
		t.Errorf("dist: %v", err)
	}
	if err := run([]string{"dist", "-traces", dir}); err == nil {
		t.Errorf("dist without -activity accepted")
	}
	if err := run([]string{"dist", "-traces", dir, "-activity", "no:such"}); err == nil {
		t.Errorf("dist for absent activity accepted")
	}
}

func TestRunTimeline(t *testing.T) {
	dir := demoDir(t)
	if err := run([]string{"timeline", "-traces", dir, "-activity", "read:/usr/lib"}); err != nil {
		t.Errorf("timeline: %v", err)
	}
	if err := run([]string{"timeline", "-traces", dir}); err == nil {
		t.Errorf("timeline without -activity accepted")
	}
}

func TestRunCompare(t *testing.T) {
	dir := demoDir(t)
	if err := run([]string{"compare", "-traces", dir, "-green", "a"}); err != nil {
		t.Errorf("compare: %v", err)
	}
	if err := run([]string{"compare", "-traces", dir, "-green", "a", "-format", "dot"}); err != nil {
		t.Errorf("compare dot: %v", err)
	}
	if err := run([]string{"compare", "-traces", dir}); err == nil {
		t.Errorf("compare without -green accepted")
	}
}

func TestRunArchiveRoundTrip(t *testing.T) {
	dir := demoDir(t)
	sta := filepath.Join(t.TempDir(), "demo.sta")
	if err := run([]string{"archive", "-traces", dir, "-o", sta}); err != nil {
		t.Fatalf("archive: %v", err)
	}
	if _, err := os.Stat(sta); err != nil {
		t.Fatalf("archive file missing: %v", err)
	}
	if err := run([]string{"dfg", "-archive", sta}); err != nil {
		t.Errorf("dfg from archive: %v", err)
	}
	// Archive content is usable through the library too.
	if n := loadArchive(t, sta, stinspector.OpenOptions{}).EventLog().NumCases(); n != 6 {
		t.Errorf("archive load: %d cases, want 6", n)
	}
}

// loadArchive drains the opts slice of an archive through the facade's
// stream into an Inspector.
func loadArchive(t *testing.T, path string, opts stinspector.OpenOptions) *stinspector.Inspector {
	t.Helper()
	src, err := stinspector.StreamArchive(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	el, err := source.Drain(src, false)
	if err != nil {
		t.Fatal(err)
	}
	return stinspector.FromEventLog(el)
}

// TestRunArchiveCaseRange: -cases a:b slices an archive input — for
// the fold and the in-memory subcommands alike — and the range
// grammar's edge cases behave per the documented contract.
func TestRunArchiveCaseRange(t *testing.T) {
	log := synth.Log("rng", 6, 20, 4)
	dir := t.TempDir()
	arc := filepath.Join(dir, "r.sta")
	if err := stinspector.WriteArchive(arc, log); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{":", "0:6", "1:4", ":3", "2:"} {
		if err := run([]string{"info", "-archive", arc, "-cases", r}); err != nil {
			t.Errorf("info -cases %s: %v", r, err)
		}
		if err := run([]string{"percase", "-archive", arc, "-cases", r}); err != nil {
			t.Errorf("percase -cases %s: %v", r, err)
		}
	}
	// An empty range streams zero cases.
	if err := run([]string{"info", "-archive", arc, "-cases", "6:6"}); err != nil {
		t.Errorf("info -cases 6:6: %v", err)
	}
	// The sliced pass must see exactly the ranged cases.
	out := captureStdout(t, func() error {
		return run([]string{"info", "-archive", arc, "-cases", "1:4"})
	})
	if !strings.HasPrefix(out, "3 cases, 60 events") {
		t.Errorf("info -cases 1:4 reported %q, want 3 cases / 60 events", out)
	}
	// A range outside the archive is a runtime failure (exit 1), not
	// a usage error: the flag was well-formed, the file disagreed.
	if got := cliutil.Report(io.Discard, "test", run([]string{"info", "-archive", arc, "-cases", "0:99"})); got != 1 {
		t.Errorf("out-of-bounds -cases: exit %d, want 1", got)
	}
	// Grammar and placement errors are usage errors (exit 2).
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"cases without archive", []string{"info", "-traces", dir, "-cases", "0:2"}},
		{"no colon", []string{"info", "-archive", arc, "-cases", "5"}},
		{"negative start", []string{"info", "-archive", arc, "-cases", "-1:2"}},
		{"inverted", []string{"info", "-archive", arc, "-cases", "4:1"}},
		{"junk", []string{"info", "-archive", arc, "-cases", "a:b"}},
	} {
		if got := cliutil.Report(io.Discard, "test", run(tc.args)); got != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"unknown"},
		{"dfg"},
		{"dfg", "-traces", "x", "-archive", "y"},
		{"dfg", "-traces", "/no/such/dir"},
		{"dfg", "-traces", ".", "-map", "bogus"},
		{"archive", "-traces", "."},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunCountFlagValidation: explicit -j/-window/-ashards values below
// 1 must fail up front with a usage error naming the flag, before any
// ingestion work; omitting a flag keeps its automatic default.
func TestRunCountFlagValidation(t *testing.T) {
	dir := demoDir(t)
	for _, tc := range []struct{ flag, value string }{
		{"-j", "0"}, {"-j", "-4"},
		{"-window", "0"}, {"-window", "-1"},
		{"-ashards", "0"}, {"-ashards", "-2"},
	} {
		err := run([]string{"dfg", "-traces", dir, tc.flag, tc.value})
		if err == nil {
			t.Errorf("dfg %s %s succeeded, want usage error", tc.flag, tc.value)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) || !strings.Contains(err.Error(), "at least 1") {
			t.Errorf("%s %s: error %q does not name the flag and bound", tc.flag, tc.value, err)
		}
	}
	// The validation also guards the detail subcommands.
	if err := run([]string{"percase", "-traces", dir, "-j", "-1"}); err == nil {
		t.Errorf("percase with -j -1 succeeded, want usage error")
	}
	// Valid explicit values still work.
	if err := run([]string{"dfg", "-traces", dir, "-j", "2", "-window", "3", "-ashards", "2"}); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

// TestRunStreamSharded: the -ashards knob drives the sharded analysis
// fold end to end over every fold subcommand.
func TestRunStreamSharded(t *testing.T) {
	dir := demoDir(t)
	for _, cmd := range []string{"dfg", "stats", "variants", "behavior", "info", "footprint"} {
		if err := run([]string{cmd, "-traces", dir, "-ashards", "4"}); err != nil {
			t.Errorf("%s -ashards 4: %v", cmd, err)
		}
	}
}

// TestRunUsageExitCodes is the table-driven flag-validation suite:
// command-line mistakes — among them a -format value the subcommand
// does not render and every retired flag — must surface as usage
// errors (exit 2), runtime failures as plain errors (exit 1), success
// as 0.
func TestRunUsageExitCodes(t *testing.T) {
	dir := demoDir(t)
	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"ok", []string{"info", "-traces", dir}, 0},
		{"ok mermaid", []string{"dfg", "-traces", dir, "-format", "mermaid"}, 0},
		{"ok svg", []string{"timeline", "-traces", dir, "-activity", "read:/usr/lib", "-format", "svg"}, 0},
		{"help request", []string{"dfg", "-h"}, 0},
		{"top-level help", []string{"-h"}, 0},
		{"top-level help word", []string{"help"}, 0},
		{"missing subcommand", []string{}, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"unknown flag", []string{"dfg", "-traces", dir, "-no-such-flag"}, 2},
		{"no source", []string{"dfg"}, 2},
		{"two sources", []string{"dfg", "-traces", dir, "-archive", "x.sta"}, 2},
		{"bad mapping", []string{"dfg", "-traces", dir, "-map", "bogus"}, 2},
		{"bad -j", []string{"dfg", "-traces", dir, "-j", "0"}, 2},
		{"bad -window", []string{"percase", "-traces", dir, "-window", "-1"}, 2},
		{"bad -ashards", []string{"dfg", "-traces", dir, "-ashards", "0"}, 2},
		{"unknown dfg format", []string{"dfg", "-traces", dir, "-format", "bogus"}, 2},
		{"stats renders text only", []string{"stats", "-traces", dir, "-format", "dot"}, 2},
		{"info renders text only", []string{"info", "-traces", dir, "-format", "dot"}, 2},
		{"compare has no mermaid", []string{"compare", "-traces", dir, "-green", "a", "-format", "mermaid"}, 2},
		{"timeline has no html", []string{"timeline", "-traces", dir, "-activity", "read:/usr/lib", "-format", "html"}, 2},
		{"report has no svg", []string{"report", "-traces", dir, "-format", "svg"}, 2},
		{"retired -stream", []string{"info", "-traces", dir, "-stream"}, 2},
		{"retired -scoped-syms", []string{"info", "-traces", dir, "-scoped-syms"}, 2},
		{"retired -skip", []string{"compare", "-traces", dir, "-green", "a", "-format", "dot", "-skip", "openat"}, 2},
		{"dist without activity", []string{"dist", "-traces", dir}, 2},
		{"compare without green", []string{"compare", "-traces", dir}, 2},
		{"archive without output", []string{"archive", "-traces", dir}, 2},
		{"merged snapshots with -filter", []string{"dfg", "-merge-snapshots", "p.sts", "-filter", "/usr/lib"}, 2},
		{"merged snapshots with -calls", []string{"compare", "-merge-snapshots", "p.sts", "-green", "a", "-calls", "read"}, 2},
		{"report from merged snapshots", []string{"report", "-merge-snapshots", "p.sts"}, 2},
		{"runtime failure", []string{"dfg", "-traces", "/no/such/dir"}, 1},
		{"runtime failure in the detail fold", []string{"percase", "-traces", "/no/such/dir"}, 1},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if got := cliutil.Report(io.Discard, "test", err); got != tc.exit {
			t.Errorf("%s: run(%v) -> exit %d (err %v), want %d", tc.name, tc.args, got, err, tc.exit)
		}
	}
}

func TestParseMapping(t *testing.T) {
	good := []string{"topdirs:2", "file:1", "env:/p=$P", "env:/p=$P,/q=$Q:2"}
	for _, s := range good {
		if _, err := parseMapping(s); err != nil {
			t.Errorf("parseMapping(%q): %v", s, err)
		}
	}
	bad := []string{"", "topdirs:x", "topdirs:0", "file:-1", "env:", "env:noequals", "wat:2"}
	for _, s := range bad {
		if _, err := parseMapping(s); err == nil {
			t.Errorf("parseMapping(%q) succeeded", s)
		}
	}
}

func TestRunFootprint(t *testing.T) {
	dir := demoDir(t)
	if err := run([]string{"footprint", "-traces", dir}); err != nil {
		t.Errorf("footprint: %v", err)
	}
	if err := run([]string{"footprint", "-traces", dir, "-green", "a"}); err != nil {
		t.Errorf("footprint diff: %v", err)
	}
}

func TestRunReport(t *testing.T) {
	dir := demoDir(t)
	if err := run([]string{"report", "-traces", dir, "-title", "demo"}); err != nil {
		t.Errorf("report: %v", err)
	}
	if err := run([]string{"report", "-traces", dir, "-green", "a", "-activity", "read:/usr/lib"}); err != nil {
		t.Errorf("report with partition: %v", err)
	}
}
