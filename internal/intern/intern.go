// Package intern implements the symbol layer of the hot path: dense
// uint32 symbols for the small, heavily repeated string vocabularies the
// paper's event model draws from (system call names from a fixed set,
// file paths from a heavily repeated path set — Equation 1 of
// arXiv:2408.07378).
//
// Three representations cover the pipeline's three concurrency regimes:
//
//   - Table is the shared, concurrency-safe symbol table: string ⇄ Sym
//     with a lock-free read path (per-shard lock-free maps, an
//     atomically published block spine for Sym → string) and per-shard
//     mutexes taken only to append a new symbol.
//   - Cache is a per-worker, unsynchronized view of a Table for the
//     parse pool: repeat lookups are plain map hits, and []byte keys
//     are looked up without allocating, so interning a trace line's
//     call name and file path costs no allocation once the vocabulary
//     has been seen.
//   - Local (local.go) is a fully unsynchronized table for the sharded
//     analysis fold, remapped into another table at merge time.
//
// Symbol tables are append-only: a string, once interned, is retained
// for the lifetime of the table. That is the right trade for the
// paper's model (tiny call vocabulary, heavily repeated paths); callers
// with unbounded vocabularies should scope a Table to the ingestion
// pass rather than use the process-wide defaultTable: construct one with
// NewTable, bind per-worker caches to it with CacheFor, and drop it
// with the pass's results — every string it interned becomes
// collectable, while defaultTable stays untouched.
package intern

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// Sym is a dense symbol: the i-th distinct string interned into a table
// gets symbol i. Symbols from different tables are not comparable;
// remap through Local.RemapInto (or re-intern the string) to move
// between tables.
type Sym uint32

const (
	numShards = 32 // power of two; shard index is hash & (numShards-1)
	blockLen  = 256
)

// Table is a sharded, concurrency-safe symbol table. The zero value is
// not ready; use NewTable. Sym 0 is always the empty string.
type Table struct {
	seed maphash.Seed

	// spine maps Sym → string: an atomically published slice of
	// fixed-size blocks. Readers load the spine pointer without locks;
	// growth replaces the slice under mu. A block entry is written
	// exactly once, before the owning shard publishes the symbol, so
	// any reader holding a Sym observes its string.
	mu    sync.Mutex
	spine atomic.Pointer[[]*block]
	n     atomic.Uint32

	shards [numShards]shard
}

type block [blockLen]string

// shard holds one slice of the string → Sym direction. Reads go through
// the lock-free m; the mutex serializes appends so every string gets
// exactly one symbol.
type shard struct {
	mu sync.Mutex
	m  sync.Map // string → Sym
}

// NewTable returns an empty table with "" pre-interned as Sym 0.
func NewTable() *Table {
	t := &Table{seed: maphash.MakeSeed()}
	empty := make([]*block, 0, 4)
	t.spine.Store(&empty)
	t.Intern("")
	return t
}

// defaultTable is the process-wide table the ingestion backends canonicalize
// event strings through.
var defaultTable = NewTable()

// Intern returns the symbol for s, assigning the next dense symbol on
// first sight. The fast path (string already present) is lock-free.
func (t *Table) Intern(s string) Sym {
	sh := &t.shards[maphash.String(t.seed, s)&(numShards-1)]
	if v, ok := sh.m.Load(s); ok {
		return v.(Sym)
	}
	return t.internSlow(sh, s)
}

func (t *Table) internSlow(sh *shard, s string) Sym {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m.Load(s); ok {
		return v.(Sym)
	}
	// Clone so the table never pins a larger parent string (parsed
	// trace lines, decoded archive sections).
	s = strings.Clone(s)
	id := Sym(t.n.Add(1) - 1)
	t.place(id, s)
	// Publishing the map entry is the release: a reader that observes
	// the Sym also observes the spine entry written above.
	sh.m.Store(s, id)
	return id
}

// place writes the Sym → string entry, growing the spine if id opens a
// new block. Only the allocator of id writes its entry.
func (t *Table) place(id Sym, s string) {
	bi := int(id) / blockLen
	spine := *t.spine.Load()
	if bi >= len(spine) {
		t.mu.Lock()
		spine = *t.spine.Load()
		for bi >= len(spine) {
			spine = append(spine, new(block))
		}
		t.spine.Store(&spine)
		t.mu.Unlock()
	}
	spine[bi][int(id)%blockLen] = s
}

// Str returns the string of a symbol previously returned by Intern on
// this table. For values never returned by Intern the result is
// unspecified (it reports "" without panicking for in-range ids).
func (t *Table) Str(y Sym) string {
	spine := *t.spine.Load()
	bi := int(y) / blockLen
	if bi >= len(spine) {
		return ""
	}
	return spine[bi][int(y)%blockLen]
}

// Len returns the number of distinct strings interned so far (≥ 1: the
// empty string is pre-interned).
func (t *Table) Len() int { return int(t.n.Load()) }
