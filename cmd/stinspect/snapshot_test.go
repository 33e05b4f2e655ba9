package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector/internal/cliutil"
	"stinspector/internal/snapshot"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed; f must succeed. The pipe is drained while f runs, so output
// larger than the pipe buffer cannot block f.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	var readErr error
	done := make(chan struct{})
	go func() {
		out, readErr = io.ReadAll(r)
		close(done)
	}()
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	<-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(out)
}

// splitDir moves the second half of a trace directory's files (in
// stream order) into a second directory, simulating two ingestion
// processes owning disjoint shards of one corpus — and, for the resume
// test, a process killed after the stream's first half.
func splitDir(t *testing.T, dir string) (string, string) {
	t.Helper()
	other := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ents {
		if i >= len(ents)/2 {
			if err := os.Rename(filepath.Join(dir, e.Name()), filepath.Join(other, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir, other
}

// Two processes snapshot disjoint trace shards; -merge-snapshots
// reproduces the single-process output byte for byte, for every
// subcommand that can run from merged aggregates.
func TestRunSnapshotShardedMerge(t *testing.T) {
	full := demoDir(t)
	a, b := splitDir(t, demoDir(t))
	tmp := t.TempDir()
	p1, p2 := filepath.Join(tmp, "part1.sts"), filepath.Join(tmp, "part2.sts")
	if err := run([]string{"snapshot", "-traces", a, "-o", p1}); err != nil {
		t.Fatalf("snapshot shard 1: %v", err)
	}
	if err := run([]string{"snapshot", "-traces", b, "-o", p2, "-ashards", "3"}); err != nil {
		t.Fatalf("snapshot shard 2: %v", err)
	}
	for _, cmd := range []string{"dfg", "stats", "variants", "footprint"} {
		want := captureStdout(t, func() error {
			return run([]string{cmd, "-traces", full})
		})
		got := captureStdout(t, func() error {
			return run([]string{cmd, "-merge-snapshots", p1 + "," + p2})
		})
		if got != want {
			t.Errorf("%s: merged-snapshot output differs from the single-process run:\ngot  %q\nwant %q", cmd, got, want)
		}
	}
}

// An interrupted snapshot fold resumes to the same file bytes a fresh
// uninterrupted run writes.
func TestRunSnapshotResume(t *testing.T) {
	full := demoDir(t)
	a, b := splitDir(t, demoDir(t))
	tmp := t.TempDir()

	ref := filepath.Join(tmp, "ref.sts")
	if err := run([]string{"snapshot", "-traces", full, "-o", ref, "-every", "2"}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// "Crash" after the first shard, then resume over the full corpus.
	got := filepath.Join(tmp, "resumed.sts")
	if err := run([]string{"snapshot", "-traces", a, "-o", got, "-every", "2"}); err != nil {
		t.Fatal(err)
	}
	// Reunite the corpus and resume: only b's cases are folded.
	ents, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.Rename(filepath.Join(b, e.Name()), filepath.Join(a, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := run([]string{"snapshot", "-traces", a, "-o", got, "-every", "2", "-resume"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Error("resumed snapshot bytes differ from uninterrupted run")
	}
	// Resuming a complete snapshot is a no-op on the file.
	if err := run([]string{"snapshot", "-traces", a, "-o", got, "-every", "2", "-resume"}); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(got); err != nil || string(data) != string(want) {
		t.Errorf("no-op resume changed the snapshot (err %v)", err)
	}
}

// A snapshot part written in another STS version fails the merge with
// the typed version error, naming the file, rather than as corruption.
func TestRunMergeSnapshotVersion(t *testing.T) {
	tmp := t.TempDir()
	good, old := filepath.Join(tmp, "good.sts"), filepath.Join(tmp, "old.sts")
	if err := run([]string{"snapshot", "-traces", demoDir(t), "-o", good}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 3 // the little-endian version word after the magic: the previous build's
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"dfg", "-merge-snapshots", good + "," + old})
	if !errors.Is(err, snapshot.ErrVersion) || !strings.Contains(err.Error(), old) {
		t.Fatalf("merge with a version-3 part: err = %v, want snapshot.ErrVersion naming %s", err, old)
	}
}

func TestRunSnapshotErrors(t *testing.T) {
	dir := demoDir(t)
	tmp := t.TempDir()
	sts := filepath.Join(tmp, "p.sts")
	if err := run([]string{"snapshot", "-traces", dir, "-o", sts}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"snapshot", "-traces", dir},                                   // missing -o
		{"snapshot", "-o", sts},                                        // missing input
		{"timeline", "-merge-snapshots", sts, "-activity", "x"},        // no per-event data
		{"percase", "-merge-snapshots", sts},                           // no per-event data
		{"dfg", "-merge-snapshots", sts, "-traces", dir},               // conflicting input
		{"dfg", "-merge-snapshots", filepath.Join(tmp, "missing.sts")}, // unreadable part
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// The filters apply when a snapshot is written; merging cannot
	// apply them, so asking for it is a usage error, not a silently
	// unfiltered graph.
	for _, args := range [][]string{
		{"dfg", "-merge-snapshots", sts, "-filter", "/usr/lib"},
		{"stats", "-merge-snapshots", sts, "-calls", "read"},
	} {
		err := run(args)
		if code := cliutil.Report(io.Discard, "test", err); code != 2 || !strings.Contains(err.Error(), "snapshot is written") {
			t.Errorf("run(%v): exit %d (err %v), want 2 naming where the filters apply", args, code, err)
		}
	}
	// A torn snapshot file is rejected, not silently merged.
	data, err := os.ReadFile(sts)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(tmp, "torn.sts")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"dfg", "-merge-snapshots", torn}); err == nil {
		t.Error("torn snapshot merged cleanly")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("torn snapshot error does not mention corruption: %v", err)
	}
}
