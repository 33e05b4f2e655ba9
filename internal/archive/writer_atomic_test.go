package archive

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// WriteFileV2 must be crash-safe: a failing write (here: a case whose
// events were perturbed out of start order after construction, which
// the writer rejects mid-stream) leaves no destination file, no torn bytes
// over a previous archive, and no temporary litter.
func TestWriteFileAtomicOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.sta")

	good := randLog(5, 3, 10)
	if err := WriteFileV2(path, good); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad := randLog(6, 2, 10)
	c := bad.Cases()[1]
	c.Events[0].Start = c.Events[len(c.Events)-1].Start + time.Second // break sort order
	if c.Sorted() {
		t.Fatal("perturbation did not unsort the case")
	}
	if err := WriteFileV2(path, bad); err == nil {
		t.Fatal("WriteFileV2 accepted an unsorted case")
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("failed write changed the existing archive")
	}
	if r, err := Open(path); err != nil {
		t.Errorf("existing archive unreadable after failed write: %v", err)
	} else {
		r.Close()
	}

	// And against a fresh path: nothing lands at all.
	fresh := filepath.Join(dir, "fresh.sta")
	if err := WriteFileV2(fresh, bad); err == nil {
		t.Fatal("WriteFileV2 accepted an unsorted case")
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("failed write left a file behind: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temporary file left behind: %s", e.Name())
		}
	}
}
