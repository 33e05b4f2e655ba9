package simfs

import (
	"sort"
	"strings"
	"time"

	"stinspector/internal/vclock"
)

// FS is the filesystem model. It is not safe for concurrent use; the
// mpisim engine drives it from a single goroutine in virtual-time order.
type FS struct {
	p     Params
	rng   *vclock.RNG
	files map[string]*fileState
	dirs  map[string]*dirState

	// Counters for tests and ablation reports.
	Revocations  int
	SharedOpens  int
	DirCreates   int
	ReadSwitches int
}

// grant is one bounded byte-range token grant [start, end) owned by a
// rank. The first writer of a file additionally becomes its default
// owner: it holds the residual whole-file token, and other ranks' grants
// are split off it on demand (GPFS's token-split behaviour on growing
// files).
type grant struct {
	start, end int64
	owner      int
}

type fileState struct {
	exists bool
	// openedBy tracks ranks that opened the file writable.
	openedBy map[int]bool
	// metaBusy is the metanode queue for writable shared opens.
	metaBusy time.Duration
	// tokenBusy is the token-manager queue (revocations, read switch).
	tokenBusy time.Duration
	// defaultOwner holds the residual whole-file write token
	// (-1: nobody has written yet).
	defaultOwner int
	// grants are the bounded write-token ranges, sorted by start.
	grants []grant
	// readShared marks the file as switched to shared-read mode.
	readShared bool
}

type dirState struct {
	createBusy time.Duration
}

// New builds a filesystem model.
func New(p Params, seed int64) *FS {
	return &FS{
		p:     p,
		rng:   vclock.NewRNG(seed),
		files: make(map[string]*fileState),
		dirs:  make(map[string]*dirState),
	}
}

func (fs *FS) file(path string) *fileState {
	f, ok := fs.files[path]
	if !ok {
		f = &fileState{openedBy: make(map[int]bool), defaultOwner: -1}
		fs.files[path] = f
	}
	return f
}

func (fs *FS) dir(path string) *dirState {
	i := strings.LastIndexByte(path, '/')
	key := "/"
	if i > 0 {
		key = path[:i]
	}
	d, ok := fs.dirs[key]
	if !ok {
		d = &dirState{}
		fs.dirs[key] = d
	}
	return d
}

func (fs *FS) local(path string) bool {
	for _, p := range fs.p.LocalPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

func (fs *FS) jitter(d time.Duration) time.Duration {
	return fs.rng.Jitter(d, fs.p.Jitter)
}

// serialize charges a serialized service interval on the queue clock:
// the request waits until the queue is free, holds it for svc, and the
// call returns the total time spent (wait + service).
func serialize(queue *time.Duration, now time.Duration, svc time.Duration) time.Duration {
	start := now
	if *queue > start {
		start = *queue
	}
	*queue = start + svc
	return start + svc - now
}

// Open models openat. Writable opens of a shared file pay the metanode
// serialization (mechanism 1); creates pay the directory serialization
// (mechanism 2). Returns the call duration.
func (fs *FS) Open(rank int, now time.Duration, path string, writable bool) time.Duration {
	dur := fs.jitter(fs.p.OpenBase)
	if fs.local(path) {
		fs.file(path).exists = true
		return dur
	}
	f := fs.file(path)
	creating := writable && !f.exists
	if creating {
		dur += fs.jitter(fs.p.CreateExtra)
		fs.DirCreates++
		dur += serialize(&fs.dir(path).createBusy, now+dur, fs.jitter(fs.p.DirCreateSvc))
	}
	if writable && !fs.p.DisableSharedOpen {
		shared := false
		for r := range f.openedBy {
			if r != rank {
				shared = true
				break
			}
		}
		if shared {
			fs.SharedOpens++
			dur += serialize(&f.metaBusy, now+dur, fs.jitter(fs.p.SharedOpenSvc))
		}
	}
	f.exists = true
	if writable {
		f.openedBy[rank] = true
	}
	return dur
}

// Write models a write of size bytes at the given offset. The first
// access to a range granted to another rank revokes the token through
// the file's serialized token manager (mechanism 3).
func (fs *FS) Write(rank int, now time.Duration, path string, offset, size int64) time.Duration {
	if fs.local(path) {
		return fs.jitter(time.Duration(float64(size) / fs.p.LocalBW * float64(time.Second)))
	}
	f := fs.file(path)
	f.exists = true
	var dur time.Duration
	if !fs.p.DisableWriteTokens {
		gb := fs.p.GrantBytes
		if gb <= 0 {
			gb = 16 << 20
		}
		owner, owned := f.owner(offset)
		switch {
		case !owned:
			// First writer: takes the residual whole-file token
			// for free and a bounded grant over the access range.
			f.defaultOwner = rank
			f.setGrant(offset, gb, rank)
		case owner != rank:
			// Revoke through the token manager, then re-grant.
			fs.Revocations++
			dur += serialize(&f.tokenBusy, now, fs.jitter(fs.p.WriteTokenSvc))
			f.setGrant(offset, gb, rank)
		}
		f.readShared = false
	}
	dur += fs.jitter(time.Duration(float64(size) / fs.p.WriteBW * float64(time.Second)))
	return dur
}

// Read models a read of size bytes. The first read of a file holding
// write grants of *other* ranks performs the one-time switch to
// shared-read mode through the token manager; afterwards reads stream at
// read bandwidth. A rank reading back a file whose tokens it holds
// exclusively (its own checkpoint, its own temporary file) pays nothing —
// it already owns the byte ranges.
func (fs *FS) Read(rank int, now time.Duration, path string, offset, size int64) time.Duration {
	if fs.local(path) {
		return fs.jitter(time.Duration(float64(size) / fs.p.LocalBW * float64(time.Second)))
	}
	f := fs.file(path)
	var dur time.Duration
	if !f.readShared && f.heldByOther(rank) && !fs.p.DisableWriteTokens {
		fs.ReadSwitches++
		dur += serialize(&f.tokenBusy, now, fs.jitter(fs.p.ReadSwitchSvc))
		f.grants = f.grants[:0]
		f.defaultOwner = -1
		f.readShared = true
	}
	dur += fs.jitter(time.Duration(float64(size) / fs.p.ReadBW * float64(time.Second)))
	return dur
}

// heldByOther reports whether any write token of the file belongs to a
// rank other than the given one.
func (f *fileState) heldByOther(rank int) bool {
	if f.defaultOwner >= 0 && f.defaultOwner != rank {
		return true
	}
	for _, g := range f.grants {
		if g.owner != rank {
			return true
		}
	}
	return false
}

// Unlink models file removal: a directory-metanode operation that
// serializes with creates and other unlinks in the same directory
// (mechanism 2), releasing the file's token state.
func (fs *FS) Unlink(rank int, now time.Duration, path string) time.Duration {
	dur := fs.jitter(fs.p.OpenBase)
	if fs.local(path) {
		delete(fs.files, path)
		return dur
	}
	fs.DirCreates++
	dur += serialize(&fs.dir(path).createBusy, now+dur, fs.jitter(fs.p.DirCreateSvc))
	delete(fs.files, path)
	return dur
}

// Seek models lseek.
func (fs *FS) Seek() time.Duration { return fs.jitter(fs.p.SmallOp) }

// Close models close.
func (fs *FS) Close() time.Duration { return fs.jitter(fs.p.SmallOp) }

// Fsync models fsync on a file.
func (fs *FS) Fsync(path string) time.Duration {
	return fs.jitter(fs.p.FsyncBase)
}

// owner returns the rank holding the write token covering offset: the
// bounded grant containing it, or the default owner's residual token.
func (f *fileState) owner(offset int64) (rank int, ok bool) {
	i := sort.Search(len(f.grants), func(i int) bool { return f.grants[i].start > offset })
	if i > 0 && offset < f.grants[i-1].end {
		return f.grants[i-1].owner, true
	}
	if f.defaultOwner >= 0 {
		return f.defaultOwner, true
	}
	return 0, false
}

// setGrant records a bounded grant [offset, offset+size) for the rank,
// removing every existing grant it overlaps (their holders lose those
// ranges).
func (f *fileState) setGrant(offset, size int64, rank int) {
	end := offset + size
	out := f.grants[:0]
	for _, g := range f.grants {
		if g.end <= offset || g.start >= end {
			out = append(out, g)
		}
	}
	f.grants = out
	i := sort.Search(len(f.grants), func(i int) bool { return f.grants[i].start > offset })
	f.grants = append(f.grants, grant{})
	copy(f.grants[i+1:], f.grants[i:])
	f.grants[i] = grant{start: offset, end: end, owner: rank}
}
