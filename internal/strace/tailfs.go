package strace

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// TailFS is the filesystem surface the follow-mode tailer consumes: a
// flat directory of growing trace files, with enough identity
// information to detect rotation (the name now binds to a different
// file) and truncation (the file shrank). The production implementation
// is osDir; internal/faultfs provides a fault-injecting one for the
// recovery test matrix, which is why this is an interface at all.
//
// Implementations must be safe for concurrent use: the tailer stats and
// opens concurrently from per-file goroutines.
type TailFS interface {
	// Names lists the trace files ("*.st") currently present, in any
	// order. A transient listing error is recoverable; the tailer
	// retries on its poll cadence.
	Names() ([]string, error)
	// Open opens the file currently bound to name for sequential
	// reading.
	Open(name string) (TailFile, error)
	// FileID reports the identity of the file currently bound to name
	// (the inode on unix). An open handle whose ID no longer matches
	// FileID(name) has been rotated away.
	FileID(name string) (uint64, error)
}

// TailFile is one open trace file being tailed.
type TailFile interface {
	io.ReadCloser
	// Size reports the current size of the open file itself (fstat): it
	// keeps growing — or shrinking, on truncation — while the handle is
	// open, even after the name is rotated away.
	Size() (int64, error)
	// ID reports the open file's identity, comparable with
	// TailFS.FileID.
	ID() uint64
}

// IsTraceName reports whether name looks like a per-case trace file the
// follow layer should tail. Compressed traces are excluded: a growing
// gzip stream cannot be incrementally decoded from an offset, so
// follow-mode consumes plain text only (batch ingestion still reads
// .st.gz).
func isTraceName(name string) bool {
	return strings.HasSuffix(name, ".st")
}

// osDir is the production TailFS over a real directory.
type osDir struct{ dir string }

func (d osDir) Names() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() || !isTraceName(ent.Name()) {
			continue
		}
		names = append(names, ent.Name())
	}
	return names, nil
}

func (d osDir) Open(name string) (TailFile, error) {
	f, err := os.Open(filepath.Join(d.dir, name))
	if err != nil {
		return nil, err
	}
	return osTailFile{f: f}, nil
}

func (d osDir) FileID(name string) (uint64, error) {
	fi, err := os.Stat(filepath.Join(d.dir, name))
	if err != nil {
		return 0, err
	}
	return fileID(fi), nil
}

type osTailFile struct{ f *os.File }

func (t osTailFile) Read(p []byte) (int, error) { return t.f.Read(p) }
func (t osTailFile) Close() error               { return t.f.Close() }

func (t osTailFile) Size() (int64, error) {
	fi, err := t.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (t osTailFile) ID() uint64 {
	fi, err := t.f.Stat()
	if err != nil {
		return 0
	}
	return fileID(fi)
}
