package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"stinspector/internal/source"
	"stinspector/internal/trace"
)

func TestMerge(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.sta")
	b := filepath.Join(dir, "b.sta")
	dst := filepath.Join(dir, "merged.sta")

	logA := randLog(1, 3, 50)
	// Distinct identities for the second log.
	var casesB []*trace.Case
	for i, c := range randLog(2, 2, 50).Cases() {
		id := c.ID
		id.CID = "other"
		_ = i
		casesB = append(casesB, trace.NewCase(id, c.Events))
	}
	logB := trace.MustNewEventLog(casesB...)

	if err := WriteFileV2(a, logA); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileV2(b, logB); err != nil {
		t.Fatal(err)
	}
	if err := Merge(dst, a, b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	src, err := OpenSource(dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := source.Drain(src, false)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := WriteV2(&merged, got); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(dst); err != nil || !bytes.Equal(raw, merged.Bytes()) {
		t.Errorf("merged file is not the canonical archive of its cases (err %v)", err)
	}
	if got.NumCases() != logA.NumCases()+logB.NumCases() {
		t.Errorf("merged cases = %d", got.NumCases())
	}
	if got.NumEvents() != logA.NumEvents()+logB.NumEvents() {
		t.Errorf("merged events = %d", got.NumEvents())
	}
}

func TestMergeErrors(t *testing.T) {
	dir := t.TempDir()
	if err := Merge(filepath.Join(dir, "out.sta")); err == nil {
		t.Errorf("empty merge accepted")
	}
	a := filepath.Join(dir, "a.sta")
	if err := WriteFileV2(a, randLog(3, 2, 20)); err != nil {
		t.Fatal(err)
	}
	// Duplicate identities across inputs.
	if err := Merge(filepath.Join(dir, "dup.sta"), a, a); err == nil {
		t.Errorf("duplicate-case merge accepted")
	}
	// Missing input.
	if err := Merge(filepath.Join(dir, "x.sta"), filepath.Join(dir, "missing.sta")); err == nil {
		t.Errorf("missing input accepted")
	}
}
