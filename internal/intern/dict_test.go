package intern

import (
	"bytes"
	"testing"
)

func TestDictRoundTrip(t *testing.T) {
	for _, strs := range [][]string{
		nil,
		{""},
		{"openat", "read", "", "/var/log/a", "read"},
		{"a", "b", "c", "aa", "bb"},
	} {
		l := NewLocal()
		for _, s := range strs {
			l.Intern(s)
		}
		enc := l.AppendDict(nil)
		got, err := DecodeDict(enc)
		if err != nil {
			t.Fatalf("DecodeDict(%q): %v", strs, err)
		}
		if got.Len() != l.Len() {
			t.Fatalf("round-trip of %q: %d strings, want %d", strs, got.Len(), l.Len())
		}
		for y := Sym(0); int(y) < l.Len(); y++ {
			if got.Str(y) != l.Str(y) {
				t.Fatalf("round-trip of %q: sym %d = %q, want %q", strs, y, got.Str(y), l.Str(y))
			}
			if ry, ok := got.Sym(l.Str(y)); !ok || ry != y {
				t.Fatalf("round-trip of %q: lookup %q = (%d,%v), want (%d,true)", strs, l.Str(y), ry, ok, y)
			}
		}
	}
}

func TestDictAppendExtends(t *testing.T) {
	l := NewLocal()
	l.Intern("x")
	prefix := []byte("hdr")
	out := l.AppendDict(prefix)
	if !bytes.HasPrefix(out, []byte("hdr")) {
		t.Fatalf("AppendDict did not extend the given slice: %q", out)
	}
	if _, err := DecodeDict(out[3:]); err != nil {
		t.Fatalf("decoding appended dict: %v", err)
	}
}

func TestDictDeterministic(t *testing.T) {
	build := func() []byte {
		l := NewLocal()
		for _, s := range []string{"read", "write", "/tmp/a", "read"} {
			l.Intern(s)
		}
		return l.AppendDict(nil)
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("AppendDict not deterministic for identical intern order")
	}
}

func TestDecodeDictHostile(t *testing.T) {
	l := NewLocal()
	l.Intern("abc")
	l.Intern("de")
	good := l.AppendDict(nil)

	cases := map[string][]byte{
		"empty":           {},
		"truncated count": {0x80},
		"huge count":      {0xff, 0xff, 0xff, 0xff, 0x0f},
		"count beyond buffer": func() []byte {
			// Claims 200 strings with 3 bytes of payload.
			return []byte{200, 1, 'a', 1}
		}(),
		"string beyond buffer": {1, 10, 'a'},
		"truncated string len": {1, 0x80},
		"trailing bytes":       append(append([]byte{}, good...), 0),
		"duplicate strings":    {2, 1, 'a', 1, 'a'},
	}
	for name, data := range cases {
		if _, err := DecodeDict(data); err == nil {
			t.Errorf("%s: DecodeDict accepted %v", name, data)
		}
	}

	// Truncation at every split point of a valid encoding must fail, not
	// misparse: the encoding is self-delimiting.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeDict(good[:i]); err == nil {
			t.Errorf("DecodeDict accepted %d-byte truncation of %v", i, good)
		}
	}
}

func TestDecodeDictCopiesOutOfBuffer(t *testing.T) {
	l := NewLocal()
	l.Intern("volatile")
	enc := l.AppendDict(nil)
	got, err := DecodeDict(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xaa // simulate the backing mmap being reused/unmapped
	}
	if got.Str(0) != "volatile" {
		t.Fatalf("decoded string aliases the input buffer: %q", got.Str(0))
	}
}

func TestRemapIntoTable(t *testing.T) {
	l := NewLocal()
	for _, s := range []string{"read", "openat", "/var/x"} {
		l.Intern(s)
	}
	tab := NewTable()
	c := newCache(tab)
	r := l.RemapIntoTable(c)
	if len(r) != l.Len() {
		t.Fatalf("remap length %d, want %d", len(r), l.Len())
	}
	for y := 0; y < l.Len(); y++ {
		if r[y] != l.Str(Sym(y)) {
			t.Fatalf("remap[%d] = %q, want %q", y, r[y], l.Str(Sym(y)))
		}
	}
	// The returned strings must be the destination table's canonical
	// copies: remapping twice yields identical (shared) strings.
	r2 := l.RemapIntoTable(newCache(tab))
	for y := range r {
		if &r[y] == &r2[y] {
			continue
		}
		if r[y] != r2[y] {
			t.Fatalf("second remap diverged at %d: %q vs %q", y, r[y], r2[y])
		}
	}
	if tab.Len() < 3 {
		t.Fatalf("destination table holds %d symbols, want >= 3", tab.Len())
	}
}
