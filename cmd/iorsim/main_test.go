package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector"
	"stinspector/internal/source"
)

func TestParseSize(t *testing.T) {
	good := map[string]int64{
		"1m":   1 << 20,
		"16m":  16 << 20,
		"4k":   4 << 10,
		"1g":   1 << 30,
		"1024": 1024,
		"1M":   1 << 20, // case-insensitive
	}
	for s, want := range good {
		got, err := parseSize(s)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"", "m", "-1m", "0", "x12"} {
		if _, err := parseSize(s); err == nil {
			t.Errorf("parseSize(%q) succeeded", s)
		}
	}
}

func TestRunWritesTracesAndArchive(t *testing.T) {
	dir := t.TempDir()
	sta := filepath.Join(t.TempDir(), "ior.sta")
	err := run([]string{
		"-ranks", "4", "-hosts", "2", "-t", "1m", "-b", "4m", "-s", "2",
		"-w", "-r", "-C", "-e", "-cid", "ssf", "-seed", "3",
		"-outdir", dir, "-archive", sta, "-preamble=false",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("trace files = %d, want 4", len(entries))
	}
	for _, ent := range entries {
		if !strings.HasPrefix(ent.Name(), "ssf_") || !strings.HasSuffix(ent.Name(), ".st") {
			t.Errorf("unexpected trace file %s", ent.Name())
		}
	}
	src, err := stinspector.StreamArchive(sta, stinspector.OpenOptions{})
	if err != nil {
		t.Fatalf("StreamArchive: %v", err)
	}
	defer src.Close()
	el, err := source.Drain(src, false)
	if err != nil {
		t.Fatal(err)
	}
	if el.NumCases() != 4 {
		t.Errorf("archive cases = %d", el.NumCases())
	}
	// The trace directory parses back through the full pipeline.
	in, err := stinspector.FromStraceDir(dir, stinspector.ParseOptions{Strict: true})
	if err != nil {
		t.Fatalf("FromStraceDir: %v", err)
	}
	if in.EventLog().NumEvents() != el.NumEvents() {
		t.Errorf("strace and archive disagree: %d vs %d",
			in.EventLog().NumEvents(), el.NumEvents())
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks", "2", "-w"},                                  // no output
		{"-t", "junk", "-outdir", "x"},                         // bad size
		{"-a", "hdf5", "-outdir", "x"},                         // bad api
		{"-t", "3", "-b", "10", "-w", "-outdir", os.TempDir()}, // non-divisible
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunCollectiveFlag(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-ranks", "4", "-hosts", "2", "-t", "1m", "-b", "2m", "-s", "1",
		"-w", "-r", "-a", "mpiio", "-c", "-cid", "cb", "-outdir", dir, "-preamble=false"})
	if err != nil {
		t.Fatalf("collective run: %v", err)
	}
	if err := run([]string{"-c", "-a", "posix", "-outdir", dir}); err == nil {
		t.Errorf("-c with posix accepted")
	}
}
