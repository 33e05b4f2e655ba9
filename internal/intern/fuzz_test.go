package intern

import "testing"

// FuzzIntern: round-trip law for all three table forms. Any pair of
// strings must intern to symbols that (a) materialize back to the
// exact input, (b) are stable across re-interning, (c) are equal iff
// the strings are equal, and (d) survive a Local remap unchanged in
// meaning.
func FuzzIntern(f *testing.F) {
	f.Add("", "")
	f.Add("read", "read")
	f.Add("read", "write")
	f.Add("/usr/lib/x86_64-linux-gnu/libselinux.so.1", "/usr/lib")
	f.Add("a\x00b", "a")
	f.Add("●", "■")
	f.Fuzz(func(t *testing.T, a, b string) {
		tab := NewTable()
		ya, yb := tab.Intern(a), tab.Intern(b)
		if tab.Str(ya) != a || tab.Str(yb) != b {
			t.Fatalf("table round trip: %q->%q, %q->%q", a, tab.Str(ya), b, tab.Str(yb))
		}
		if (ya == yb) != (a == b) {
			t.Fatalf("symbol equality diverges from string equality: %d/%d for %q/%q", ya, yb, a, b)
		}
		if tab.Intern(a) != ya || tab.Intern(b) != yb {
			t.Fatal("re-intern unstable")
		}

		c := newCache(tab)
		if c.Intern(a) != ya || c.internBytes([]byte(b)) != yb {
			t.Fatal("cache disagrees with table")
		}
		if c.Canon(a) != a || c.CanonBytes([]byte(b)) != b {
			t.Fatal("canon changed the string value")
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
