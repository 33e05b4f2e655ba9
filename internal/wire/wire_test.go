package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"stinspector/internal/trace"
)

func TestRoundTripPrimitives(t *testing.T) {
	var b Buf
	b.Uvarint(0)
	b.Uvarint(math.MaxUint64)
	b.Varint(-1 << 40)
	b.U32(0xdeadbeef)
	b.U64(0x0123456789abcdef)
	b.str("hello, wire")
	b.str("")
	b.Bool(true)
	b.Bool(false)
	b.Raw([]byte{1, 2, 3})

	c := NewCursor(b.Bytes())
	if v, err := c.Uvarint(); err != nil || v != 0 {
		t.Fatalf("uvarint: %d, %v", v, err)
	}
	if v, err := c.Uvarint(); err != nil || v != math.MaxUint64 {
		t.Fatalf("uvarint max: %d, %v", v, err)
	}
	if v, err := c.Varint(); err != nil || v != -1<<40 {
		t.Fatalf("varint: %d, %v", v, err)
	}
	if v, err := c.U32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("u32: %x, %v", v, err)
	}
	if v, err := c.U64(); err != nil || v != 0x0123456789abcdef {
		t.Fatalf("u64: %x, %v", v, err)
	}
	if s, err := c.str(); err != nil || s != "hello, wire" {
		t.Fatalf("str: %q, %v", s, err)
	}
	if s, err := c.str(); err != nil || s != "" {
		t.Fatalf("empty str: %q, %v", s, err)
	}
	if v, err := c.Bool(); err != nil || !v {
		t.Fatalf("bool true: %v, %v", v, err)
	}
	if v, err := c.Bool(); err != nil || v {
		t.Fatalf("bool false: %v, %v", v, err)
	}
	if c.Remaining() != 3 {
		t.Fatalf("remaining = %d, want 3", c.Remaining())
	}
	if err := c.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

// Every truncated or malformed read must surface as CorruptError, not a
// panic or a silent zero.
func TestCursorErrors(t *testing.T) {
	checkCorrupt := func(name string, err error) {
		t.Helper()
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want CorruptError", name, err)
		}
	}

	_, err := NewCursor(nil).Uvarint()
	checkCorrupt("empty uvarint", err)
	_, err = NewCursor([]byte{0x80, 0x80}).Uvarint()
	checkCorrupt("truncated uvarint", err)
	// 10-byte uvarint with a continuation bit on byte 10 overflows.
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	_, err = NewCursor(over).Uvarint()
	checkCorrupt("overlong uvarint", err)
	_, err = NewCursor([]byte{1, 2}).U32()
	checkCorrupt("short u32", err)
	_, err = NewCursor([]byte{1}).U64()
	checkCorrupt("short u64", err)
	_, err = NewCursor(nil).Bool()
	checkCorrupt("empty bool", err)
	_, err = NewCursor([]byte{7}).Bool()
	checkCorrupt("bad bool byte", err)
	// String length claims more than the input holds.
	var b Buf
	b.Uvarint(1000)
	b.Raw([]byte("short"))
	_, err = NewCursor(b.Bytes()).str()
	checkCorrupt("oversized string", err)
}

// Count rejects element counts the remaining bytes cannot possibly
// encode — the allocation-bomb guard.
func TestCountGuardsAllocation(t *testing.T) {
	var b Buf
	b.Uvarint(1 << 40) // claims 2^40 elements
	c := NewCursor(b.Bytes())
	if _, err := c.Count(4); err == nil {
		t.Fatal("Count accepted an impossible element count")
	} else if !strings.Contains(err.Error(), "impossible") {
		t.Fatalf("unexpected error: %v", err)
	}

	// A count that exactly fits is accepted.
	var ok Buf
	ok.Uvarint(3)
	ok.Raw([]byte{1, 2, 3, 4, 5, 6})
	c = NewCursor(ok.Bytes())
	n, err := c.Count(2)
	if err != nil || n != 3 {
		t.Fatalf("Count = %d, %v; want 3, nil", n, err)
	}
}

func TestIntRejectsHugeCounters(t *testing.T) {
	var b Buf
	b.Uvarint(math.MaxUint64)
	if _, err := NewCursor(b.Bytes()).Int(); err == nil {
		t.Fatal("Int accepted a counter beyond int range")
	}
	var ok Buf
	ok.Uvarint(42)
	if v, err := NewCursor(ok.Bytes()).Int(); err != nil || v != 42 {
		t.Fatalf("Int = %d, %v", v, err)
	}
}

func TestDictRoundTrip(t *testing.T) {
	for _, strs := range [][]string{
		nil,
		{""},
		{"openat", "read", "", "/var/log/a"},
		{"a", "b", "c", "aa", "bb"},
	} {
		var b Buf
		b.Dict(strs)
		c := NewCursor(b.Bytes())
		got, err := c.Dict()
		if err != nil {
			t.Fatalf("Dict(%q): %v", strs, err)
		}
		if err := c.Done(); err != nil {
			t.Fatalf("Dict(%q): %v", strs, err)
		}
		if len(got) != len(strs) {
			t.Fatalf("round-trip of %q: %d strings, want %d", strs, len(got), len(strs))
		}
		for i := range strs {
			if got[i] != strs[i] {
				t.Fatalf("round-trip of %q: id %d = %q, want %q", strs, i, got[i], strs[i])
			}
		}
	}
}

func TestDictAppendExtends(t *testing.T) {
	var b Buf
	b.Raw([]byte("hdr"))
	b.Dict([]string{"x"})
	out := b.Bytes()
	if !bytes.HasPrefix(out, []byte("hdr")) {
		t.Fatalf("Dict did not extend the buffer: %q", out)
	}
	if _, err := NewCursor(out[3:]).Dict(); err != nil {
		t.Fatalf("decoding the appended dictionary: %v", err)
	}
}

func TestDictDeterministic(t *testing.T) {
	build := func() []byte {
		var b Buf
		b.Dict([]string{"read", "write", "/tmp/a"})
		return b.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("Dict not deterministic for identical strings")
	}
}

func TestDecodeDictHostile(t *testing.T) {
	var b Buf
	b.Dict([]string{"abc", "de"})
	good := b.Bytes()

	cases := map[string][]byte{
		"empty":           {},
		"truncated count": {0x80},
		"huge count":      {0xff, 0xff, 0xff, 0xff, 0x0f},
		// Claims 200 strings with 3 bytes of payload.
		"count beyond buffer":  {200, 1, 'a', 1},
		"string beyond buffer": {1, 10, 'a'},
		"truncated string len": {1, 0x80},
		"duplicate strings":    {2, 1, 'a', 1, 'a'},
	}
	for name, data := range cases {
		_, err := NewCursor(data).Dict()
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: Dict(%v) = %v, want a CorruptError", name, data, err)
		}
	}
	c := NewCursor(append(append([]byte{}, good...), 0))
	if _, err := c.Dict(); err != nil {
		t.Fatal(err)
	}
	if c.Done() == nil {
		t.Error("trailing byte after the dictionary not reported")
	}

	// Truncation at every split point of a valid encoding must fail, not
	// misparse: the encoding is self-delimiting.
	for i := 0; i < len(good); i++ {
		if _, err := NewCursor(good[:i]).Dict(); err == nil {
			t.Errorf("Dict accepted %d-byte truncation of %v", i, good)
		}
	}
}

func TestDecodeDictCopiesOutOfBuffer(t *testing.T) {
	var b Buf
	b.Dict([]string{"volatile"})
	enc := b.Bytes()
	got, err := NewCursor(enc).Dict()
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xaa // simulate the backing mmap being reused/unmapped
	}
	if got[0] != "volatile" {
		t.Fatalf("decoded string aliases the input buffer: %q", got[0])
	}
}

// A case identity round-trips against its dictionary, and an id past
// the dictionary's end is corruption.
func TestCaseIDRoundTrip(t *testing.T) {
	dict := []string{"host", "cid"}
	sym := func(s string) uint64 {
		for i, d := range dict {
			if d == s {
				return uint64(i)
			}
		}
		t.Fatalf("%q not in the dictionary", s)
		return 0
	}
	want := trace.CaseID{CID: "cid", Host: "host", RID: -7}
	var b Buf
	b.CaseID(want, sym)
	c := NewCursor(b.Bytes())
	if got, err := c.CaseID(dict); err != nil || got != want {
		t.Fatalf("CaseID = %v, %v; want %v", got, err, want)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"cid id out of range":  {2, 0, 0},
		"host id out of range": {1, 9, 0},
		"truncated rid":        {1, 0},
	} {
		_, err := NewCursor(data).CaseID(dict)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: CaseID = %v, want a CorruptError", name, err)
		}
	}
}
