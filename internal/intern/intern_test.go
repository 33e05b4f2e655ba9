package intern

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// same reports whether a and b share one allocation.
func same(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// TestTableBasics: canonicalizing returns an equal string, the same
// allocation on every later call, a copy that does not alias the
// argument, and one entry per distinct string.
func TestTableBasics(t *testing.T) {
	tab := NewTable()
	if tab.Len() != 0 {
		t.Errorf("fresh table Len = %d, want 0", tab.Len())
	}
	line := "openat read write"
	a := tab.canon(line[7:11])
	b := tab.canon("write")
	if a != "read" || b != "write" {
		t.Fatalf("canon changed the value: %q, %q", a, b)
	}
	if same(a, line[7:11]) {
		t.Error("canon kept the argument's backing array; the table would pin the parent string")
	}
	if again := tab.canon(string([]byte("read"))); !same(again, a) {
		t.Error("re-canonicalizing an equal string returned another allocation")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2 (read, write)", tab.Len())
	}
}

// TestInternConcurrent is the table's race test: N goroutines
// canonicalize an overlapping vocabulary through per-worker caches;
// afterwards every string must have exactly one allocation across all
// workers, and the table must hold exactly the vocabulary. Run under
// -race this also proves the lock-free read path publishes safely.
func TestInternConcurrent(t *testing.T) {
	tab := NewTable()
	const workers = 8
	const perWorker = 4000
	vocab := make([]string, 199) // shared, overlapping vocabulary
	for i := range vocab {
		vocab[i] = fmt.Sprintf("/data/dir%02d/file%d", i%13, i)
	}
	results := make([]map[string]string, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := newCache(tab)
			seen := make(map[string]string)
			for i := 0; i < perWorker; i++ {
				// A fresh copy each time, so only the table can make
				// two calls agree on an allocation.
				s := string([]byte(vocab[(w*31+i*7)%len(vocab)]))
				v := c.Canon(s)
				if v != s {
					t.Errorf("worker %d: Canon(%q) = %q", w, s, v)
					return
				}
				if prev, ok := seen[s]; ok && !same(prev, v) {
					t.Errorf("worker %d: %q got two allocations", w, s)
					return
				}
				seen[s] = v
			}
			results[w] = seen
		}(w)
	}
	wg.Wait()

	// One allocation per string, across all workers.
	global := make(map[string]string)
	for w, seen := range results {
		for s, v := range seen {
			if prev, ok := global[s]; ok && !same(prev, v) {
				t.Errorf("worker %d: %q is not the allocation another worker saw", w, s)
			}
			global[s] = v
		}
	}
	if len(global) != len(vocab) {
		t.Errorf("observed %d distinct strings, want %d", len(global), len(vocab))
	}
	if tab.Len() != len(vocab) {
		t.Errorf("table holds %d strings, want %d", tab.Len(), len(vocab))
	}
}

// TestCacheBytesAndCanon: the string and []byte forms of a cache
// return the table's own allocation, on a miss and on a hit.
func TestCacheBytesAndCanon(t *testing.T) {
	tab := NewTable()
	c := newCache(tab)
	s := c.Canon(string([]byte("openat")))
	if s != "openat" || !same(s, tab.canon("openat")) {
		t.Errorf("Canon = %q, not the table's copy", s)
	}
	if got := c.Canon("openat"); !same(got, s) {
		t.Error("Canon hit returned another allocation")
	}
	if got := c.CanonBytes([]byte("openat")); !same(got, s) {
		t.Error("CanonBytes hit returned another allocation")
	}
	fresh := newCache(tab)
	if got := fresh.CanonBytes([]byte("openat")); !same(got, s) {
		t.Error("CanonBytes miss returned another allocation")
	}
	if c.t != tab {
		t.Error("Table() identity")
	}
}

// TestLocalRemapIdentity: remapping a local table into an empty one
// reproduces the sequential symbol assignment exactly — the one-shard
// case of the merge remap.
func TestLocalRemapIdentity(t *testing.T) {
	l := NewLocal()
	for i := 0; i < 100; i++ {
		l.Intern(fmt.Sprintf("a%d", i%37))
	}
	dst := NewLocal()
	r := l.RemapInto(dst)
	for y := 0; y < l.Len(); y++ {
		if r[y] != Sym(y) {
			t.Fatalf("remap into empty: r[%d] = %d, want identity", y, r[y])
		}
		if dst.Str(r[y]) != l.Str(Sym(y)) {
			t.Fatalf("remap changed string: %q -> %q", l.Str(Sym(y)), dst.Str(r[y]))
		}
		if dst.Strs()[y] != l.Str(Sym(y)) {
			t.Fatalf("Strs()[%d] = %q, want %q", y, dst.Strs()[y], l.Str(Sym(y)))
		}
	}
}

// TestLocalRemapMerge is the merge-remap property test: shard-local
// tables built from a round-robin partition of one string stream,
// remapped into a single table in shard order, must (a) preserve every
// string exactly and (b) assign one symbol per distinct string — the
// precondition under which the sharded analysis fold's artifacts are
// byte-identical to the sequential fold's.
func TestLocalRemapMerge(t *testing.T) {
	stream := make([]string, 500)
	for i := range stream {
		stream[i] = fmt.Sprintf("/p/scratch/u%d/part%d", i%7, i%23)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		locals := make([]*Local, shards)
		for i := range locals {
			locals[i] = NewLocal()
		}
		for i, s := range stream {
			locals[i%shards].Intern(s)
		}
		global := NewLocal()
		for si, l := range locals {
			r := l.RemapInto(global)
			for y := 0; y < l.Len(); y++ {
				if global.Str(r[y]) != l.Str(Sym(y)) {
					t.Fatalf("shards=%d shard %d: remap changed %q to %q",
						shards, si, l.Str(Sym(y)), global.Str(r[y]))
				}
			}
		}
		// The merged table holds exactly the distinct strings.
		distinct := make(map[string]bool)
		for _, s := range stream {
			distinct[s] = true
		}
		if global.Len() != len(distinct) {
			t.Errorf("shards=%d: merged table %d symbols, want %d", shards, global.Len(), len(distinct))
		}
		// Every string has exactly one global symbol, equal to a direct
		// sequential intern of the stream when shards == 1.
		for s := range distinct {
			if _, ok := global.Sym(s); !ok {
				t.Errorf("shards=%d: %q missing from merged table", shards, s)
			}
		}
	}
}

// TestGetPutCache: pooled caches front the Default table.
func TestGetPutCache(t *testing.T) {
	c := CacheFor(nil)
	if c.t != defaultTable {
		t.Fatal("CacheFor(nil) not over the default table")
	}
	s := c.Canon("read")
	PutCache(c)
	c2 := CacheFor(nil)
	defer PutCache(c2)
	if got := c2.Canon("read"); !same(got, s) {
		t.Errorf("canonical string changed across pool round trip")
	}
}

// TestCacheFor: pooled caches bind to the requested table — nil means
// Default, a scoped table gets its own map, and interning through a
// scoped cache never grows Default.
func TestCacheFor(t *testing.T) {
	if c := CacheFor(nil); c.t != defaultTable {
		t.Errorf("CacheFor(nil) bound to %p, want Default", c.t)
	} else {
		PutCache(c)
	}
	tab := NewTable()
	d0 := defaultTable.Len()
	c := CacheFor(tab)
	if c.t != tab {
		t.Fatalf("CacheFor bound to %p, want the scoped table", c.t)
	}
	if got := c.Canon("/cachefor-test-only/novel/path"); !same(got, tab.canon(got)) {
		t.Errorf("scoped Canon = %q, not the scoped table's copy", got)
	}
	if got := c.CanonBytes([]byte("/cachefor-test-only/other")); got != "/cachefor-test-only/other" || !same(got, tab.canon(got)) {
		t.Errorf("scoped CanonBytes = %q, not the scoped table's copy", got)
	}
	if tab.Len() != 2 {
		t.Errorf("scoped table Len = %d, want 2", tab.Len())
	}
	if defaultTable.Len() != d0 {
		t.Errorf("scoped interning grew Default: %d -> %d", d0, defaultTable.Len())
	}
	PutCache(c)
}

// TestPutCacheScopedHygiene is the pool-hygiene regression test: a
// pooled cache must not pin a scoped table (or its strings, via the
// cache map) after the pass that owned the table puts the cache back.
// Default-bound caches, by contrast, keep their warm map — Default
// lives for the process anyway.
func TestPutCacheScopedHygiene(t *testing.T) {
	tab := NewTable()
	c := CacheFor(tab)
	c.Canon("/hygiene-test/a")
	PutCache(c)
	if c.t != nil {
		t.Errorf("scoped cache still references its table after PutCache")
	}
	if c.m != nil {
		t.Errorf("scoped cache still holds its map (and the table's strings) after PutCache")
	}

	d := CacheFor(nil)
	d.Canon("read")
	PutCache(d)
	if d.t != defaultTable || d.m == nil {
		t.Errorf("Default-bound cache was stripped on PutCache; the warm-vocabulary reuse is gone")
	}
}

// TestScopedTableCollectableAfterPut proves the hygiene fix end to
// end: once a pass puts its caches back and drops its table, the table
// is garbage — nothing in the package-level pool keeps it alive.
func TestScopedTableCollectableAfterPut(t *testing.T) {
	collected := make(chan struct{})
	func() {
		tab := NewTable()
		runtime.SetFinalizer(tab, func(*Table) { close(collected) })
		c := CacheFor(tab)
		for i := 0; i < 1000; i++ {
			c.Canon(fmt.Sprintf("/collectable-test/%d", i))
		}
		PutCache(c)
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatal("scoped table never collected after PutCache — the pool pins it")
}

// TestCacheForNeverCrossesTables pins the no-aliasing contract of the
// cache pool: scoped tables never receive a pooled cache (each get is
// freshly bound, since the pool holds only Default-bound caches), so
// interleaving passes over different tables — with puts in between —
// can never serve a cache whose map belongs to another table.
func TestCacheForNeverCrossesTables(t *testing.T) {
	a, b := NewTable(), NewTable()
	for i := 0; i < 4; i++ {
		ca := CacheFor(a)
		if ca.t != a {
			t.Fatalf("cache bound to %p, want table a", ca.t)
		}
		sa := ca.Canon("shared-key")
		if !same(sa, a.canon("shared-key")) {
			t.Fatalf("table a: Canon = %q, not the table's copy", sa)
		}
		PutCache(ca)
		cb := CacheFor(b)
		if cb.t != b {
			t.Fatalf("cache bound to %p, want table b", cb.t)
		}
		sb := cb.Canon("shared-key")
		if !same(sb, b.canon("shared-key")) || same(sb, sa) {
			t.Fatalf("table b: Canon = %q, not table b's own copy", sb)
		}
		PutCache(cb)
	}
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("table lens = %d, %d, want 1, 1", a.Len(), b.Len())
	}
}
