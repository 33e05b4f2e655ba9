// Package faultfs is the deterministic fault-injection harness of the
// live-ingestion test matrix. It attacks both sides of a follow-mode
// tailer over a real directory:
//
//   - FS wraps the read side with seeded, countable faults — transient
//     open errors, short reads, transient read errors — behind the same
//     interface (strace.TailFS) as the real directory, so the tailer
//     cannot tell it is being tested.
//   - Appender replays known-good file contents through a seeded fault
//     plan on the write side: appends are chunked so boundaries cut
//     records mid-line (the delayed-append/truncated-write case), the
//     file is sporadically truncated back to a shorter prefix and
//     rewritten (size shrink), or removed and recreated (rotation: new
//     inode). Every fault converges — the final bytes always equal the
//     input — so a correct tailer must recover to the exact fault-free
//     result, which is what the equivalence suite asserts.
//
// Everything is driven by explicit seeds and counters rather than wall
// clock or probability-of-the-day, so a failing scenario replays
// exactly under -race.
package faultfs

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// InjectedError marks a fault the harness injected, so tests and
// recovery paths can tell synthetic failures from real ones.
type InjectedError struct {
	Op   string // "open", "read"
	Name string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultfs: injected %s fault on %s", e.Op, e.Name)
}

// Temporary marks injected faults as transient, matching the retry
// contract of the tailer's backoff path.
func (e *InjectedError) Temporary() bool { return true }

// Faults configures the read-side fault plan. Zero values disable each
// fault. The *EveryN counters are global across the FS (every Nth call
// fails), which keeps injection deterministic under any goroutine
// interleaving: the set of injected faults depends only on call counts.
type Faults struct {
	// OpenFailEveryN makes every Nth Open return a transient
	// InjectedError instead of a handle.
	OpenFailEveryN int
	// ReadFailEveryN makes every Nth Read return a transient
	// InjectedError (no bytes consumed; the handle stays usable).
	ReadFailEveryN int
	// ShortReadMax caps each Read at a seeded 1..ShortReadMax bytes, so
	// record boundaries land mid-buffer.
	ShortReadMax int
}

// FS implements the strace.TailFS method set over dir with read-side
// fault injection. It is safe for concurrent use.
type FS struct {
	dir    string
	faults Faults

	mu    sync.Mutex
	rnd   *rand.Rand
	opens atomic.Uint64
	reads atomic.Uint64

	// InjectedOpens / InjectedReads count the faults actually fired,
	// for test assertions that the scenario exercised what it claims.
	InjectedOpens atomic.Uint64
	InjectedReads atomic.Uint64
}

// New returns a fault-injecting FS over dir. The seed drives short-read
// sizing; the EveryN counters need no randomness.
func New(dir string, seed int64, f Faults) *FS {
	return &FS{dir: dir, faults: f, rnd: rand.New(rand.NewSource(seed))}
}

// Names lists the *.st files under dir (the strace.TailFS contract).
func (f *FS) Names() ([]string, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".st") {
			continue
		}
		names = append(names, ent.Name())
	}
	return names, nil
}

// Open opens name, failing transiently every OpenFailEveryN-th call.
func (f *FS) Open(name string) (*File, error) {
	n := f.opens.Add(1)
	if k := uint64(f.faults.OpenFailEveryN); k > 0 && n%k == 0 {
		f.InjectedOpens.Add(1)
		return nil, &InjectedError{Op: "open", Name: name}
	}
	h, err := os.Open(filepath.Join(f.dir, name))
	if err != nil {
		return nil, err
	}
	return &File{fs: f, name: name, f: h}, nil
}

// FileID reports the inode currently bound to name.
func (f *FS) FileID(name string) (uint64, error) {
	fi, err := os.Stat(filepath.Join(f.dir, name))
	if err != nil {
		return 0, err
	}
	return inode(fi), nil
}

// shortLen picks the seeded size of a short read.
func (f *FS) shortLen(max int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return 1 + f.rnd.Intn(max)
}

// File is one open handle with read faults applied.
type File struct {
	fs   *FS
	name string
	f    *os.File
}

func (h *File) Read(p []byte) (int, error) {
	n := h.fs.reads.Add(1)
	if k := uint64(h.fs.faults.ReadFailEveryN); k > 0 && n%k == 0 {
		h.fs.InjectedReads.Add(1)
		return 0, &InjectedError{Op: "read", Name: h.name}
	}
	if max := h.fs.faults.ShortReadMax; max > 0 && len(p) > max {
		p = p[:h.fs.shortLen(max)]
	}
	return h.f.Read(p)
}

func (h *File) Close() error { return h.f.Close() }

// Size reports the open file's current size (fstat).
func (h *File) Size() (int64, error) {
	fi, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ID reports the open file's inode.
func (h *File) ID() uint64 {
	fi, err := h.f.Stat()
	if err != nil {
		return 0
	}
	return inode(fi)
}

// Plan configures the write-side fault replay. Zero values disable each
// fault; a zero Plan appends the whole content in one write.
type Plan struct {
	// Chunk is the target append size in bytes (<= 0 means the whole
	// content at once). Chunk boundaries deliberately ignore line
	// structure, so partial trailing lines are the norm, not the edge
	// case.
	Chunk int
	// TruncateEveryN truncates the file back to a seeded shorter prefix
	// before every Nth chunk, then resumes appending from there — the
	// size-shrink fault. The truncation point is mid-line more often
	// than not. The rollback is bounded below Chunk so every replay
	// makes net forward progress and terminates.
	TruncateEveryN int
	// RotateEveryN removes and recreates the file before every Nth
	// chunk, rewriting from offset 0 under a fresh inode — the rotation
	// fault.
	RotateEveryN int
	// Gap pauses between chunks, letting the tailer observe
	// intermediate states. Keep it at a few milliseconds in tests; the
	// faults, not the clock, carry the scenario.
	Gap time.Duration
}

// Appender replays file contents into a directory under a fault plan.
// Each file's fault sequence is seeded by (seed, name), so concurrent
// replays of different files stay individually deterministic.
type Appender struct {
	dir  string
	seed int64
	plan Plan

	// Truncations, Rotations, Chunks count the faults performed.
	Truncations atomic.Uint64
	Rotations   atomic.Uint64
	Chunks      atomic.Uint64
}

// NewAppender returns an appender writing into dir under the plan.
func NewAppender(dir string, seed int64, plan Plan) *Appender {
	return &Appender{dir: dir, seed: seed, plan: plan}
}

// fileRand derives the per-file deterministic random stream.
func (a *Appender) fileRand(name string) *rand.Rand {
	h := fnv.New64a()
	io.WriteString(h, name)
	return rand.New(rand.NewSource(a.seed ^ int64(h.Sum64())))
}

// Replay writes content to name chunk by chunk, injecting the plan's
// truncations and rotations. When it returns nil the file's bytes equal
// content exactly — every fault has converged.
func (a *Appender) Replay(name string, content []byte) error {
	path := filepath.Join(a.dir, name)
	rnd := a.fileRand(name)
	chunk := a.plan.Chunk
	if chunk <= 0 {
		chunk = len(content)
		if chunk == 0 {
			chunk = 1
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() { f.Close() }()

	written := 0
	n := 0
	for written < len(content) {
		n++
		if k := a.plan.RotateEveryN; k > 0 && n%k == 0 && written > 0 {
			// Rotation: the name is rebound to a fresh file; everything
			// already written is rewritten from 0 so the replay converges.
			f.Close()
			if err := os.Remove(path); err != nil {
				return err
			}
			f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				return err
			}
			if _, err := f.Write(content[:written]); err != nil {
				return err
			}
			a.Rotations.Add(1)
		} else if k := a.plan.TruncateEveryN; k > 0 && n%k == 0 && written > 0 {
			// Truncation: shrink to a seeded prefix, then resume. The
			// tailer sees size < offset and must restart from 0. Rolling
			// back strictly less than one chunk keeps the replay
			// terminating: each chunk written outpaces the worst rollback.
			cut := 1
			if chunk > 2 {
				cut += rnd.Intn(chunk - 2)
			}
			back := written - cut
			if back < 0 {
				back = 0
			}
			if err := f.Truncate(int64(back)); err != nil {
				return err
			}
			if _, err := f.Seek(int64(back), io.SeekStart); err != nil {
				return err
			}
			written = back
			a.Truncations.Add(1)
		}
		end := written + chunk
		if end > len(content) {
			end = len(content)
		}
		if _, err := f.Write(content[written:end]); err != nil {
			return err
		}
		written = end
		a.Chunks.Add(1)
		if a.plan.Gap > 0 {
			time.Sleep(a.plan.Gap)
		}
	}
	return f.Close()
}
