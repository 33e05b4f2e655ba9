package intern

import "sync"

// cacheMax bounds a Cache's private map so a worker that sees an
// adversarial stream of distinct strings (a fuzzed trace, say) cannot
// grow its cache without bound; the shared Table keeps the canonical
// mapping either way.
const cacheMax = 1 << 15

// Cache is a per-worker, unsynchronized front of a Table. Lookups that
// hit the cache are plain map reads — no locks, no atomics — and the
// []byte forms avoid the string conversion allocation, so a parse
// worker interning the same call names and file paths over and over
// runs allocation-free.
//
// A Cache must not be shared between goroutines; get one per worker
// (CacheFor/PutCache pool them).
type Cache struct {
	t *Table
	m map[string]Sym
}

// newCache returns an empty cache over t.
func newCache(t *Table) *Cache {
	return &Cache{t: t, m: make(map[string]Sym, 64)}
}

func (c *Cache) trim() {
	if len(c.m) >= cacheMax {
		c.m = make(map[string]Sym, 64)
	}
}

// Intern returns the symbol for s.
func (c *Cache) Intern(s string) Sym {
	if y, ok := c.m[s]; ok {
		return y
	}
	y := c.t.Intern(s)
	c.trim()
	// Key with the table's canonical string so the cache never pins
	// the caller's (possibly larger) backing allocation.
	c.m[c.t.Str(y)] = y
	return y
}

// internBytes is Intern for a []byte key. On a cache hit no string is
// allocated.
func (c *Cache) internBytes(b []byte) Sym {
	if y, ok := c.m[string(b)]; ok { // compiler elides the conversion
		return y
	}
	y := c.t.Intern(string(b))
	c.trim()
	c.m[c.t.Str(y)] = y
	return y
}

// Canon returns the canonical (interned) string equal to s. Passing
// every parsed call name and file path through Canon deduplicates the
// event-log's strings: one allocation per distinct string per process,
// not one per event.
func (c *Cache) Canon(s string) string { return c.t.Str(c.Intern(s)) }

// CanonBytes is Canon for a []byte, allocating only on first sight.
func (c *Cache) CanonBytes(b []byte) string { return c.t.Str(c.internBytes(b)) }

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
// cannot pin the pass's table (or any string it interned) after the
// pass's results were dropped — the retention the scoped mode exists
// to avoid.
func PutCache(c *Cache) {
	if c.t != defaultTable {
		c.t, c.m = nil, nil
		return
	}
	cachePool.Put(c)
}
