package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"stinspector"
	"stinspector/internal/cliutil"
	"stinspector/internal/source"
	"stinspector/internal/synth/profiles"
)

func TestRunGeneratesDemoTraces(t *testing.T) {
	dir := t.TempDir()
	sta := filepath.Join(t.TempDir(), "demo.sta")
	if err := run([]string{"-outdir", dir, "-archive", sta, "-host", "nodeZ"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("files = %d, want 6", len(entries))
	}
	in, err := stinspector.FromStraceDir(dir, stinspector.ParseOptions{Strict: true})
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	if in.EventLog().NumEvents() != 75 {
		t.Errorf("events = %d, want 75", in.EventLog().NumEvents())
	}
	for _, c := range in.EventLog().Cases() {
		if c.ID.Host != "nodeZ" {
			t.Errorf("host = %s", c.ID.Host)
		}
	}
	if el := readArchive(t, sta); el.NumEvents() != 75 {
		t.Errorf("archive: %v events", el.NumEvents())
	}
}

// readArchive drains an archive's event-log through the facade's
// stream.
func readArchive(t *testing.T, path string) *stinspector.EventLog {
	t.Helper()
	src, err := stinspector.StreamArchive(path, stinspector.OpenOptions{})
	if err != nil {
		t.Fatalf("archive %s: %v", path, err)
	}
	defer src.Close()
	el, err := source.Drain(src, false)
	if err != nil {
		t.Fatalf("archive %s: %v", path, err)
	}
	return el
}

func TestRunNeedsOutput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Errorf("no output target accepted")
	}
}

// TestRunProfileTraces: -profile writes strace text and an archive that
// both parse back to the deterministic generator output.
func TestRunProfileTraces(t *testing.T) {
	dir := t.TempDir()
	sta := filepath.Join(t.TempDir(), "ht.sta")
	args := []string{"-profile", "heavytail", "-cases", "5", "-events", "40",
		"-seed", "9", "-cid", "htx", "-outdir", dir, "-archive", sta}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	p, _ := profiles.Lookup("heavytail")
	want := p.Generate("htx", 5, 40, 9)

	in, err := stinspector.FromStraceDir(dir, stinspector.ParseOptions{Strict: true})
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	if in.EventLog().NumEvents() != want.NumEvents() {
		t.Errorf("dir events = %d, want %d", in.EventLog().NumEvents(), want.NumEvents())
	}
	el := readArchive(t, sta)
	if el.NumEvents() != want.NumEvents() || el.NumCases() != want.NumCases() {
		t.Errorf("archive = %d events/%d cases, want %d/%d",
			el.NumEvents(), el.NumCases(), want.NumEvents(), want.NumCases())
	}
	for _, c := range want.Cases() {
		got := el.Case(c.ID)
		if got == nil || len(got.Events) != len(c.Events) {
			t.Errorf("case %s not reproduced", c.ID)
		}
	}
}

// TestRunFormatOutputs: one run writes both encodings through
// -outdir and -archive, and both parse back to the same deterministic
// generator output, event for event.
func TestRunFormatOutputs(t *testing.T) {
	dir := t.TempDir()
	p, _ := profiles.Lookup("burst")
	want := p.Generate("fmt", 4, 30, 3)
	straceDir, sta := filepath.Join(dir, "st"), filepath.Join(dir, "a.sta")
	args := []string{"-profile", "burst", "-cases", "4", "-events", "30",
		"-seed", "3", "-cid", "fmt", "-outdir", straceDir, "-archive", sta}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}

	in, err := stinspector.FromStraceDir(straceDir, stinspector.ParseOptions{Strict: true})
	if err != nil {
		t.Fatalf("parse back strace: %v", err)
	}
	if in.EventLog().NumEvents() != want.NumEvents() {
		t.Errorf("strace events = %d, want %d", in.EventLog().NumEvents(), want.NumEvents())
	}

	el := readArchive(t, sta)
	if el.NumEvents() != want.NumEvents() || el.NumCases() != want.NumCases() {
		t.Errorf("archive = %d events/%d cases, want %d/%d",
			el.NumEvents(), el.NumCases(), want.NumEvents(), want.NumCases())
	}
	for _, c := range want.Cases() {
		got := el.Case(c.ID)
		if got == nil || len(got.Events) != len(c.Events) {
			t.Fatalf("case %s not reproduced by the archive", c.ID)
		}
		for i := range c.Events {
			if c.Events[i] != got.Events[i] {
				t.Fatalf("case %s event %d differs: %+v vs %+v", c.ID, i, got.Events[i], c.Events[i])
			}
		}
	}
}

func TestRunListProfiles(t *testing.T) {
	// -list-profiles succeeds without any output target.
	if err := run([]string{"-list-profiles"}); err != nil {
		t.Errorf("list-profiles: %v", err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	tmp := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown profile", []string{"-profile", "nope", "-outdir", "x"}},
		{"bad cases", []string{"-profile", "burst", "-cases", "0", "-outdir", "x"}},
		{"underscore cid", []string{"-profile", "burst", "-cid", "a_b", "-outdir", "x"}},
		{"host with profile", []string{"-profile", "burst", "-host", "h", "-outdir", "x"}},
		{"stray operand", []string{"-outdir", "x", "extra"}},
		{"no output", []string{"-profile", "burst"}},
		// -outdir and -archive are the one output selector; the retired
		// -format/-o pair is an unknown flag.
		{"retired -format/-o", []string{"-format", "sta", "-o", filepath.Join(tmp, "x.sta")}},
		{"retired -format", []string{"-format", "strace", "-outdir", tmp}},
		{"retired -o", []string{"-o", filepath.Join(tmp, "y.sta"), "-archive", filepath.Join(tmp, "z.sta")}},
	} {
		err := run(tc.args)
		if cliutil.Report(io.Discard, "test", err) != 2 {
			t.Errorf("%s: exit = %d (err %v), want 2", tc.name, cliutil.Report(io.Discard, "test", err), err)
		}
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	if got := cliutil.Report(io.Discard, "test", run([]string{"-h"})); got != 0 {
		t.Errorf("-h exit = %d, want 0", got)
	}
}
