package pm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"stinspector/internal/synth"
	"stinspector/internal/wire"
)

func buildLog(t *testing.T) *Log {
	t.Helper()
	el := synth.Log("snap", 24, 40, 20240924)
	b := newBuilder(CallTopDirs{Depth: 2}, BuildOptions{Endpoints: true})
	for _, c := range el.Cases() {
		b.add(c)
	}
	return b.Finalize()
}

// Encode∘decode is the identity on activity-logs, and the encoding is
// canonical: re-encoding the decoded log reproduces the bytes exactly.
func TestLogSnapshotRoundTrip(t *testing.T) {
	l := buildLog(t)
	enc := l.EncodeSnapshot()
	got, err := DecodeLogSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.mapped != l.mapped || got.unmapped != l.unmapped {
		t.Errorf("counters: got %d/%d, want %d/%d", got.mapped, got.unmapped, l.mapped, l.unmapped)
	}
	if len(got.variants) != len(l.variants) {
		t.Fatalf("decoded %d variants, want %d", len(got.variants), len(l.variants))
	}
	for i, v := range l.variants {
		gv := got.variants[i]
		if !reflect.DeepEqual(gv.Seq, v.Seq) || gv.Mult != v.Mult || !reflect.DeepEqual(gv.Cases, v.Cases) {
			t.Errorf("variant %d differs:\ngot  %v ^%d %v\nwant %v ^%d %v", i, gv.Seq, gv.Mult, gv.Cases, v.Seq, v.Mult, v.Cases)
		}
	}
	if re := got.EncodeSnapshot(); !bytes.Equal(re, enc) {
		t.Errorf("re-encode differs: %d vs %d bytes", len(re), len(enc))
	}
}

func TestLogSnapshotEmpty(t *testing.T) {
	l := &Log{}
	got, err := DecodeLogSnapshot(l.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVariants() != 0 || got.mapped != 0 || got.unmapped != 0 {
		t.Errorf("decoded empty log has state: %v", got)
	}
}

// A decoded log stays a first-class Log: merging it with another
// partial reproduces the merge of the originals.
func TestLogSnapshotMergesAfterDecode(t *testing.T) {
	el := synth.Log("snapm", 16, 30, 7)
	m := CallTopDirs{Depth: 2}
	mk := func(lo, hi int) *Log {
		b := newBuilder(m, BuildOptions{Endpoints: true})
		for _, c := range el.Cases()[lo:hi] {
			b.add(c)
		}
		return b.Finalize()
	}
	whole := mk(0, 16)
	a, bp := mk(0, 9), mk(9, 16)
	da, err := DecodeLogSnapshot(a.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	db, err := DecodeLogSnapshot(bp.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	merged := mergeAll(da, db)
	if !bytes.Equal(merged.EncodeSnapshot(), whole.EncodeSnapshot()) {
		t.Error("merge of decoded partials differs from the whole fold")
	}
}

// miscountedLog encodes a log of one variant ⟨read:/f⟩ with the given
// multiplicity and that many cases recorded.
func miscountedLog(mult, cases int) []byte {
	var b wire.Buf
	b.Dict([]string{"read:/f", "c", "h"}) // activity, CID, host
	b.Uvarint(uint64(mult))               // mapped
	b.Uvarint(0)                          // unmapped
	b.Uvarint(1)                          // one variant
	b.Uvarint(1)                          // seq len
	b.Uvarint(0)                          // read:/f
	b.Uvarint(uint64(mult))
	b.Uvarint(uint64(cases))
	for rid := 0; rid < cases; rid++ {
		b.Uvarint(1) // CID
		b.Uvarint(2) // host
		b.Varint(int64(rid))
	}
	return b.Bytes()
}

// twoVariantLog encodes a log of two one-activity variants, the
// activities dictionary ids first and second of {read:/a, read:/b},
// each with one case.
func twoVariantLog(first, second uint64) []byte {
	var b wire.Buf
	b.Dict([]string{"read:/a", "read:/b", "c", "h"})
	b.Uvarint(2) // mapped
	b.Uvarint(0) // unmapped
	b.Uvarint(2) // two variants
	for rid, act := range []uint64{first, second} {
		b.Uvarint(1) // seq len
		b.Uvarint(act)
		b.Uvarint(1) // mult
		b.Uvarint(1) // one case
		b.Uvarint(2) // CID
		b.Uvarint(3) // host
		b.Varint(int64(rid))
	}
	return b.Bytes()
}

// Truncations and out-of-range ids must fail with CorruptError — never
// panic, never a silently wrong log.
func TestLogSnapshotCorrupt(t *testing.T) {
	enc := buildLog(t).EncodeSnapshot()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeLogSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	// Dictionary id beyond the table.
	var b wire.Buf
	b.Dict([]string{"x"})
	b.Uvarint(0) // mapped
	b.Uvarint(0) // unmapped
	b.Uvarint(1) // one variant
	b.Uvarint(1) // seq len
	b.Uvarint(9) // out-of-range activity id
	b.Uvarint(1) // mult
	b.Uvarint(0) // no cases
	var ce *wire.CorruptError
	if _, err := DecodeLogSnapshot(b.Bytes()); !errors.As(err, &ce) {
		t.Fatalf("out-of-range dictionary id: err = %v, want CorruptError", err)
	}
	// A variant's case list must hold exactly one case per count: Merge
	// would pad a short list with zero CaseIDs.
	for _, bad := range []struct{ mult, cases int }{{0, 0}, {2, 1}, {1, 2}} {
		enc := miscountedLog(bad.mult, bad.cases)
		if _, err := DecodeLogSnapshot(enc); !errors.As(err, &ce) {
			t.Errorf("multiplicity %d with %d cases: err = %v, want CorruptError", bad.mult, bad.cases, err)
		}
	}
	if _, err := DecodeLogSnapshot(miscountedLog(2, 2)); err != nil {
		t.Errorf("well-counted variant rejected: %v", err)
	}
	// Variants must come in strictly ascending canonical order: a
	// repeated variant and two swapped ones are corruption.
	for _, bad := range [][2]uint64{{0, 0}, {1, 0}} {
		if _, err := DecodeLogSnapshot(twoVariantLog(bad[0], bad[1])); !errors.As(err, &ce) {
			t.Errorf("variants %v: err = %v, want CorruptError", bad, err)
		}
	}
	if _, err := DecodeLogSnapshot(twoVariantLog(0, 1)); err != nil {
		t.Errorf("ordered variants rejected: %v", err)
	}
}
