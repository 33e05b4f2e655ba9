package core

import (
	"path/filepath"
	"testing"

	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// writeTraceDir renders a synthetic multi-rank event-log as a directory
// of per-rank .st files.
func writeTraceDir(t *testing.T, nFiles, perFile int) (string, *trace.EventLog) {
	t.Helper()
	log := synth.Log("core", nFiles, perFile, 11)
	dir := t.TempDir()
	if err := strace.WriteDir(dir, log); err != nil {
		t.Fatal(err)
	}
	return dir, log
}

// TestFromStraceDirParallelEquivalence: the full facade pipeline (parse,
// map, DFG, stats, render) must be bit-identical whatever the ingestion
// parallelism.
func TestFromStraceDirParallelEquivalence(t *testing.T) {
	dir, want := writeTraceDir(t, 23, 40)
	seq, err := FromStraceDir(dir, strace.Options{Strict: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.EventLog().NumEvents() != want.NumEvents() {
		t.Fatalf("sequential ingest: got %d events, want %d", seq.EventLog().NumEvents(), want.NumEvents())
	}
	for _, p := range []int{0, 2, 8} {
		par, err := FromStraceDir(dir, strace.Options{Strict: true, Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		if got, wantTxt := par.RenderText(), seq.RenderText(); got != wantTxt {
			t.Errorf("Parallelism=%d: rendered DFG differs from sequential", p)
		}
		if got, wantSum := par.Summary(), seq.Summary(); got != wantSum {
			t.Errorf("Parallelism=%d: summary %q, want %q", p, got, wantSum)
		}
	}
}

// TestFromArchiveParallelEquivalence: the archive decode path is
// deterministic under concurrency too.
func TestFromArchiveParallelEquivalence(t *testing.T) {
	dir, _ := writeTraceDir(t, 12, 30)
	seq, err := FromStraceDir(dir, strace.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "log.sta")
	if err := seq.SaveArchive(path); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 8} {
		in, err := loadArchive(path, p)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		if got, want := in.RenderText(), seq.RenderText(); got != want {
			t.Errorf("parallelism=%d: rendered DFG differs from source log", p)
		}
	}
}
