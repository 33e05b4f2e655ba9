package strace

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stinspector/internal/trace"
)

// TestReadDirGzip: compressed trace files (the practical format for
// large rank counts) parse identically to plain ones.
func TestReadDirGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	dir := t.TempDir()

	id1 := trace.CaseID{CID: "g", Host: "h1", RID: 1}
	id2 := trace.CaseID{CID: "g", Host: "h1", RID: 2}
	c1 := trace.NewCase(id1, randEvents(rng, id1, 30))
	c2 := trace.NewCase(id2, randEvents(rng, id2, 30))

	// c1 plain, c2 gzipped.
	var plain bytes.Buffer
	w := NewWriter(&plain)
	if err := w.WriteCase(c1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id1.FileName()), plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var raw bytes.Buffer
	w2 := NewWriter(&raw)
	if err := w2.WriteCase(c2); err != nil {
		t.Fatal(err)
	}
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	if _, err := gz.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id2.FileName()+".gz"), gzBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	log, err := readDir(dir, Options{Strict: true})
	if err != nil {
		t.Fatalf("readDir: %v", err)
	}
	if log.NumCases() != 2 {
		t.Fatalf("cases = %d", log.NumCases())
	}
	if got := log.Case(id2); got == nil || !reflect.DeepEqual(got.Events, c2.Events) {
		t.Errorf("gzipped case differs after round trip")
	}
}

func TestReadDirBadGzip(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a_h_1.st.gz"), []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDir(dir, Options{}); err == nil {
		t.Errorf("corrupt gzip accepted")
	}
}
