package intern

import "sync"

// cacheMax bounds a Cache's private map so a worker that sees an
// adversarial stream of distinct strings (a fuzzed trace, say) cannot
// grow its cache without bound; the shared Table keeps the canonical
// mapping either way.
const cacheMax = 1 << 15

// Cache is a per-worker, unsynchronized front of a Table. Lookups that
// hit the cache are plain map reads — no locks, no atomics — and the
// []byte form avoids the string conversion allocation, so a parse
// worker canonicalizing the same call names and file paths over and
// over runs allocation-free.
//
// A Cache must not be shared between goroutines; get one per worker
// (CacheFor/PutCache pool them).
type Cache struct {
	t *Table
	m map[string]string // string → the table's copy
}

// newCache returns an empty cache over t.
func newCache(t *Table) *Cache {
	return &Cache{t: t, m: make(map[string]string, 64)}
}

func (c *Cache) trim() {
	if len(c.m) >= cacheMax {
		c.m = make(map[string]string, 64)
	}
}

// Canon returns the canonical string equal to s: the table's copy.
// Passing every parsed call name and file path through Canon
// deduplicates the event-log's strings: one allocation per distinct
// string per table, not one per event.
func (c *Cache) Canon(s string) string {
	if v, ok := c.m[s]; ok {
		return v
	}
	v := c.t.canon(s)
	c.trim()
	// Key with the table's copy so the cache never pins the caller's
	// (possibly larger) backing allocation.
	c.m[v] = v
	return v
}

// CanonBytes is Canon for a []byte. On a cache hit no string is
// allocated.
func (c *Cache) CanonBytes(b []byte) string {
	if v, ok := c.m[string(b)]; ok { // compiler elides the conversion
		return v
	}
	v := c.t.canon(string(b))
	c.trim()
	c.m[v] = v
	return v
}

// cachePool recycles per-worker caches over defaultTable — and
// only defaultTable. defaultTable lives for the process, so pooled caches stay
// warm across files forever; scoped-table caches never enter the pool
// (they would either pin their pass's table or, stripped, displace the
// warm defaultTable caches).
var cachePool = sync.Pool{New: func() any { return newCache(defaultTable) }}

// CacheFor hands out a per-worker cache bound to t (nil means
// defaultTable); return it with PutCache when the worker is done with its
// file/section. defaultTable-bound caches are pooled and arrive warm; a
// scoped table gets a fresh cache, whose map costs a couple of
// allocations amortized over the whole file/section.
func CacheFor(t *Table) *Cache {
	if t == nil || t == defaultTable {
		return cachePool.Get().(*Cache)
	}
	return newCache(t)
}

// PutCache retires a cache obtained from CacheFor.
// defaultTable-bound caches return to the pool with their warm map. A cache
// bound to a scoped table is not pooled; it drops its table reference
// and map instead, so even a stray caller reference to the cache
// cannot pin the pass's table (or any string it holds) after the
// pass's results were dropped — the retention the scoped mode exists
// to avoid.
func PutCache(c *Cache) {
	if c.t != defaultTable {
		c.t, c.m = nil, nil
		return
	}
	cachePool.Put(c)
}
