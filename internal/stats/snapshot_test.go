package stats

import (
	"bytes"
	"errors"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/synth"
	"stinspector/internal/wire"
)

// Encode∘decode preserves the computer's pre-Finalize state exactly:
// the decoded computer re-encodes to identical bytes and finalizes to
// bit-identical statistics, floats included (they derive from the
// 128-bit integer accumulators the snapshot carries verbatim).
func TestComputerSnapshotRoundTrip(t *testing.T) {
	el := synth.Log("snap", 24, 40, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	c := NewComputer(m)
	for _, cs := range el.Cases() {
		c.Add(cs)
	}
	enc := c.EncodeSnapshot()
	got, err := DecodeComputerSnapshot(enc, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Symbols() != c.Symbols() {
		t.Errorf("Symbols = %d, want %d", got.Symbols(), c.Symbols())
	}
	if re := got.EncodeSnapshot(); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(re), len(enc))
	}
	if gs, ws := serialize(got.Finalize()), serialize(c.Finalize()); gs != ws {
		t.Errorf("finalized stats differ:\n--- decoded ---\n%s--- original ---\n%s", gs, ws)
	}
}

// A decoded computer stays mergeable: decoding two disjoint partials
// and merging reproduces the sequential fold bit-for-bit.
func TestComputerSnapshotMergesAfterDecode(t *testing.T) {
	el := synth.Log("snapm", 20, 30, 11)
	m := pm.CallTopDirs{Depth: 2}
	seq := NewComputer(m)
	for _, cs := range el.Cases() {
		seq.Add(cs)
	}
	want := serialize(seq.Finalize())

	mk := func(lo, hi int) []byte {
		c := NewComputer(m)
		for _, cs := range el.Cases()[lo:hi] {
			c.Add(cs)
		}
		return c.EncodeSnapshot()
	}
	a, err := DecodeComputerSnapshot(mk(0, 11), m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeComputerSnapshot(mk(11, 20), m)
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if got := serialize(a.Finalize()); got != want {
		t.Errorf("merged decoded partials differ from sequential fold:\n--- merged ---\n%s--- sequential ---\n%s", got, want)
	}
}

func TestComputerSnapshotEmpty(t *testing.T) {
	m := pm.CallTopDirs{Depth: 2}
	got, err := DecodeComputerSnapshot(NewComputer(m).EncodeSnapshot(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Symbols() != 0 || got.totalDur != 0 {
		t.Errorf("decoded empty computer has state: %d symbols", got.Symbols())
	}
}

// Hostile input fails with CorruptError — truncations, out-of-range
// symbols, explicit empty accumulators — never a panic.
func TestComputerSnapshotCorrupt(t *testing.T) {
	el := synth.Log("snap", 6, 20, 3)
	m := pm.CallTopDirs{Depth: 2}
	c := NewComputer(m)
	for _, cs := range el.Cases() {
		c.Add(cs)
	}
	enc := c.EncodeSnapshot()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeComputerSnapshot(enc[:cut], m); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	var ce *wire.CorruptError
	// An accumulator claiming events == 0 breaks the absence invariant.
	var b wire.Buf
	b.Dict([]string{"act"})
	b.Varint(0)   // totalDur
	b.Uvarint(1)  // one accumulator
	b.Uvarint(0)  // sym
	b.Uvarint(0)  // events == 0
	b.Varint(0)   // totalDur
	b.Varint(0)   // bytes
	b.Bool(false) // hasBytes
	b.U64(0)      // rate.hi
	b.U64(0)      // rate.lo
	b.Uvarint(0)  // rateCount
	b.Uvarint(0)  // no spans
	if _, err := DecodeComputerSnapshot(b.Bytes(), m); !errors.As(err, &ce) {
		t.Fatalf("empty accumulator: err = %v, want CorruptError", err)
	}
}
