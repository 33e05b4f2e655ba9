// Package intern holds the two string tables of the hot path, built for
// the small, heavily repeated string vocabularies the paper's event
// model draws from (system call names from a fixed set, file paths from
// a heavily repeated path set — Equation 1 of arXiv:2408.07378).
//
// Two forms cover the pipeline's two jobs:
//
//   - Table and Cache are the shared set of canonical strings the
//     ingestion backends parse into. Table is concurrency-safe; Cache
//     is a per-worker, unsynchronized front of it for the parse pool:
//     repeat lookups are plain map hits, and []byte keys are looked up
//     without allocating, so canonicalizing a trace line's call name
//     and file path costs no allocation once the vocabulary has been
//     seen. Every event string equal to another shares its allocation.
//   - Local (local.go) is the dense symbol table of the analysis fold:
//     fully unsynchronized, one per shard, remapped into another table
//     at merge time.
//
// A Table is append-only: a string, once canonicalized, is retained for
// the lifetime of the table. That is the right trade for the paper's
// model (tiny call vocabulary, heavily repeated paths); callers with
// unbounded vocabularies should scope a Table to the ingestion pass
// rather than use the process-wide defaultTable: construct one with
// NewTable, bind per-worker caches to it with CacheFor, and drop it
// with the pass's results — every string the pass owns becomes
// collectable, while defaultTable stays untouched.
package intern

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Table is a concurrency-safe set of canonical strings: each distinct
// string it has seen maps to one retained copy. The zero value is not
// ready; use NewTable.
type Table struct {
	m sync.Map // string → its canonical copy (string)
	n atomic.Int64
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// defaultTable is the process-wide table the ingestion backends canonicalize
// event strings through.
var defaultTable = NewTable()

// canon returns the table's copy of s, storing a copy on first sight.
// The fast path (string already present) is a lock-free load.
func (t *Table) canon(s string) string {
	if v, ok := t.m.Load(s); ok {
		return v.(string)
	}
	// Clone so the table never pins a larger parent string (parsed
	// trace lines, decoded archive sections), and box the clone once so
	// the entry's key and value share it.
	var c any = strings.Clone(s)
	v, loaded := t.m.LoadOrStore(c, c)
	if !loaded {
		t.n.Add(1)
	}
	return v.(string)
}

// Len returns the number of distinct strings the table holds.
func (t *Table) Len() int { return int(t.n.Load()) }
