package intern

import "testing"

// FuzzIntern: the laws of both table forms. Any pair of strings must
// canonicalize to (a) an equal string, (b) the same allocation when
// canonicalized again from a fresh copy, and (c) one allocation that
// the table, Cache.Canon and Cache.CanonBytes agree on; and they must
// (d) round-trip through a Local and survive a Local remap unchanged
// in meaning.
func FuzzIntern(f *testing.F) {
	f.Add("", "")
	f.Add("read", "read")
	f.Add("read", "write")
	f.Add("/usr/lib/x86_64-linux-gnu/libselinux.so.1", "/usr/lib")
	f.Add("a\x00b", "a")
	f.Add("●", "■")
	f.Fuzz(func(t *testing.T, a, b string) {
		tab := NewTable()
		ca, cb := tab.canon(a), tab.canon(b)
		if ca != a || cb != b {
			t.Fatalf("canon changed the value: %q->%q, %q->%q", a, ca, b, cb)
		}
		if (a == b) != same(ca, cb) {
			t.Fatalf("allocation identity diverges from string equality for %q/%q", a, b)
		}
		if !same(tab.canon(string([]byte(a))), ca) || !same(tab.canon(string([]byte(b))), cb) {
			t.Fatal("re-canonicalizing returned another allocation")
		}

		c := newCache(tab)
		if got := c.Canon(string([]byte(a))); got != a || !same(got, ca) {
			t.Fatal("Cache.Canon disagrees with the table")
		}
		if got := c.CanonBytes([]byte(b)); got != b || !same(got, cb) {
			t.Fatal("Cache.CanonBytes disagrees with the table")
		}
		if !same(c.CanonBytes([]byte(a)), ca) || !same(c.Canon(b), cb) {
			t.Fatal("cache hits disagree with the table")
		}

		l := NewLocal()
		la, lb := l.Intern(a), l.Intern(b)
		if l.Str(la) != a || l.Str(lb) != b {
			t.Fatal("local round trip")
		}
		dst := NewLocal()
		dst.Intern(b) // pre-populate so the remap is not the identity
		r := l.RemapInto(dst)
		if dst.Str(r[la]) != a || dst.Str(r[lb]) != b {
			t.Fatal("remap changed string meaning")
		}
	})
}
