package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"stinspector/internal/behavior"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
	"stinspector/internal/synth"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
)

// foldRange builds the snapshot of a sequential fold over a contiguous
// slice of the synth corpus — the reference state the container tests
// split, merge and round-trip.
func foldRange(el *trace.EventLog, m pm.Mapping, lo, hi int) *Snapshot {
	sm := pm.NewSymMapper(m)
	pmB := pm.NewBuilderSym(sm, pm.BuildOptions{Endpoints: true})
	stC := stats.NewComputerSym(sm)
	bh := behavior.New()
	s := &Snapshot{}
	for _, c := range el.Cases()[lo:hi] {
		s.Cases++
		s.Events += len(c.Events)
		s.Seen = append(s.Seen, c.ID)
		buf := sm.MapCase(c, nil)
		pmB.AddMapped(c.ID, buf)
		stC.AddMapped(c, buf)
		bh.AddCase(c)
	}
	s.Log = pmB.Finalize()
	s.Stats = stC
	s.Behavior = bh
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	el := synth.Log("sts", 20, 40, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	s := foldRange(el, m, 0, 20)
	enc := Encode(s)
	got, err := decode(enc, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cases != s.Cases || got.Events != s.Events {
		t.Errorf("meta: got %d/%d, want %d/%d", got.Cases, got.Events, s.Cases, s.Events)
	}
	if len(got.Seen) != len(s.Seen) {
		t.Fatalf("seen: got %d ids, want %d", len(got.Seen), len(s.Seen))
	}
	for i := range got.Seen {
		if got.Seen[i] != s.Seen[i] {
			t.Fatalf("seen[%d] = %s, want %s", i, got.Seen[i], s.Seen[i])
		}
	}
	if re := Encode(got); !bytes.Equal(re, enc) {
		t.Errorf("re-encode differs: %d vs %d bytes", len(re), len(enc))
	}
}

// Merging the snapshots of a disjoint contiguous partition reproduces
// the whole fold's snapshot byte-for-byte — the property the
// multi-process merge and the resume path stand on.
func TestSnapshotMergeOfSplitsIsWhole(t *testing.T) {
	el := synth.Log("sts", 21, 30, 7)
	m := pm.CallTopDirs{Depth: 2}
	whole := Encode(foldRange(el, m, 0, 21))
	parts := []*Snapshot{
		foldRange(el, m, 0, 8),
		foldRange(el, m, 8, 15),
		foldRange(el, m, 15, 21),
	}
	if got := Encode(Merge(parts[0], parts[1], parts[2])); !bytes.Equal(got, whole) {
		t.Error("merged split snapshots differ from the whole fold's snapshot")
	}
	// nil partials are skipped.
	a := foldRange(el, m, 0, 21)
	if got := Encode(Merge(nil, a, nil)); !bytes.Equal(got, whole) {
		t.Error("Merge with nils differs from the whole fold's snapshot")
	}
}

// The checkpoint loop's shape: folding random epoch splits of every
// generator profile into one accumulator with repeated
// acc = Merge(acc, ep), a trailing empty epoch included, encodes to
// exactly the one-shot fold's bytes. Merge updates only its target:
// the epoch it folds in re-encodes unchanged.
func TestSnapshotEpochMergeIsWhole(t *testing.T) {
	m := pm.CallTopDirs{Depth: 2}
	rng := rand.New(rand.NewSource(5))
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			el := p.Generate("ep", 24, 40, 17)
			n := el.NumCases()
			whole := Encode(foldRange(el, m, 0, n))
			for trial := 0; trial < 3; trial++ {
				var acc *Snapshot
				for lo := 0; ; {
					hi := min(lo+1+rng.Intn(8), n)
					ep := foldRange(el, m, lo, hi)
					before := Encode(ep)
					acc = Merge(acc, ep)
					if acc != ep && !bytes.Equal(Encode(ep), before) {
						t.Fatalf("trial %d: Merge modified the epoch [%d,%d) it folded in", trial, lo, hi)
					}
					if lo == n { // the trailing empty epoch is merged too
						break
					}
					lo = hi
				}
				if !bytes.Equal(Encode(acc), whole) {
					t.Errorf("trial %d: epoch-merged snapshot differs from the one-shot fold", trial)
				}
			}
		})
	}
}

// Every truncation and every corrupted byte must surface as an error —
// wire.CorruptError for structural damage — and never a panic or a
// silently different snapshot.
func TestSnapshotCorruption(t *testing.T) {
	el := synth.Log("sts", 8, 25, 3)
	m := pm.CallTopDirs{Depth: 2}
	enc := Encode(foldRange(el, m, 0, 8))

	for cut := 0; cut < len(enc); cut++ {
		if _, err := decode(enc[:cut], m); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	// Flip one bit in every byte position: header, section prefixes,
	// bodies, CRCs, index and footer are each covered by a check.
	mut := make([]byte, len(enc))
	for pos := 0; pos < len(enc); pos++ {
		copy(mut, enc)
		mut[pos] ^= 0x10
		got, err := decode(mut, m)
		if err == nil {
			// A flip inside an unchecked gap would have to reproduce
			// identical state to be acceptable; require detection.
			if !bytes.Equal(Encode(got), enc) {
				t.Fatalf("bit flip at %d decoded to different state without error", pos)
			}
		}
	}
	var ce *wire.CorruptError
	if _, err := decode(enc[:len(enc)-1], m); !errors.As(err, &ce) {
		t.Errorf("truncated file: err = %v, want CorruptError", err)
	}
	if _, err := decode([]byte("not a snapshot at all, definitely"), m); !errors.As(err, &ce) {
		t.Errorf("garbage: err = %v, want CorruptError", err)
	}
	if _, err := decode(descendingStartSnapshot(foldRange(el, m, 0, 8)), m); !errors.As(err, &ce) {
		t.Errorf("descending-start stats section: err = %v, want CorruptError", err)
	}
	if _, err := decode(retiredKindSnapshot(foldRange(el, m, 0, 8)), m); !errors.As(err, &ce) {
		t.Errorf("retired kind-4 section: err = %v, want CorruptError", err)
	}
	for _, second := range []string{"/a", "/b"} {
		if _, err := decode(unsortedBehaviorSnapshot(foldRange(el, m, 0, 8), second), m); !errors.As(err, &ce) {
			t.Errorf("behavior subjects /b, %s: err = %v, want CorruptError", second, err)
		}
	}
}

// A file of any other STS version — the previous one above all, which a
// state directory from an older build holds — fails with ErrVersion,
// not as corruption, whether it is whole or only a header.
func TestSnapshotVersionError(t *testing.T) {
	m := pm.CallTopDirs{Depth: 2}
	enc := Encode(foldRange(synth.Log("sts", 4, 10, 1), m, 0, 4))
	for _, ver := range []uint32{1, 2, 3} {
		var h wire.Buf
		h.U32(ver)
		old := append([]byte(nil), enc...)
		copy(old[4:8], h.Bytes())
		for _, data := range [][]byte{old, old[:8]} {
			_, err := decode(data, m)
			var ce *wire.CorruptError
			if !errors.Is(err, ErrVersion) || errors.As(err, &ce) {
				t.Errorf("version %d, %d bytes: err = %v, want ErrVersion and no CorruptError", ver, len(data), err)
			}
		}
	}
}

// retiredKindSnapshot is a well-framed version-4 snapshot of s that
// also carries a kind-4 section, the DFG section of versions up to 3,
// holding an empty graph. Checksums are all valid: the retired kind
// must fail as corruption, never be skipped silently.
func retiredKindSnapshot(s *Snapshot) []byte {
	var g wire.Buf
	g.Dict(nil)
	g.Uvarint(0) // traces
	g.Uvarint(0) // nodes
	g.Uvarint(0) // edges
	return encodeSections(append(sectionsOf(s), section{4, g.Bytes()}))
}

// descendingStartSnapshot is a well-framed snapshot of s whose stats
// section holds one activity with two spans, the second starting
// before the first — written the only way the format can express it,
// as a start delta that wraps past int64. Checksums are all valid, so
// only the stats decoder's order check stands in its way.
func descendingStartSnapshot(s *Snapshot) []byte {
	var b wire.Buf
	b.Dict([]string{"read:/f"})
	b.Varint(0)  // totalDur
	b.Uvarint(1) // one accumulator
	b.Uvarint(0) // activity 0
	b.Uvarint(2) // events
	b.Varint(0)  // totalDur
	b.Varint(0)  // bytes
	b.Bool(false)
	b.U64(0) // rate.hi
	b.U64(0) // rate.lo
	b.Uvarint(0)
	b.Uvarint(2)           // spans
	b.Varint(100)          // start0
	b.Uvarint(5)           // dur0
	b.Uvarint(^uint64(49)) // start 50: delta -50
	b.Uvarint(5)           // dur1
	secs := sectionsOf(s)
	for i := range secs {
		if secs[i].kind == kindStats {
			secs[i].body = b.Bytes()
		}
	}
	return encodeSections(secs)
}

// unsortedBehaviorSnapshot is a well-framed snapshot of s whose
// behavior section holds one case that opened "/b" and then second:
// "/a" is out of order, "/b" a duplicate. Checksums are all valid, so
// only the behavior decoder's order check stands in its way.
func unsortedBehaviorSnapshot(s *Snapshot, second string) []byte {
	var b wire.Buf
	b.Dict([]string{"app", "h1", "/b", "/a"})
	b.Uvarint(1) // cases
	b.Uvarint(0) // cid
	b.Uvarint(1) // host
	b.Varint(1)  // rid
	b.Uvarint(2) // events
	b.Uvarint(2) // opened entries
	b.Uvarint(2) // "/b"
	b.Uvarint(1)
	if second == "/a" {
		b.Uvarint(3)
	} else {
		b.Uvarint(2)
	}
	b.Uvarint(1)
	for op := 1; op < 7; op++ {
		b.Uvarint(0)
	}
	secs := sectionsOf(s)
	for i := range secs {
		if secs[i].kind == kindBehavior {
			secs[i].body = b.Bytes()
		}
	}
	return encodeSections(secs)
}

// unsortedLogSnapshot is a well-framed snapshot of s whose
// activity-log section holds the variant ⟨read:/b⟩ and then second:
// ⟨read:/a⟩ is out of order, ⟨read:/b⟩ a repeat. Checksums are all
// valid, so only the log decoder's order check stands in its way.
func unsortedLogSnapshot(s *Snapshot, second string) []byte {
	var b wire.Buf
	b.Dict([]string{"app", "h1", "read:/b", "read:/a"})
	b.Uvarint(2) // mapped
	b.Uvarint(0) // unmapped
	b.Uvarint(2) // variants
	for rid, act := range []string{"/b", second} {
		b.Uvarint(1) // seq len
		if act == "/a" {
			b.Uvarint(3)
		} else {
			b.Uvarint(2)
		}
		b.Uvarint(1) // mult
		b.Uvarint(1) // cases
		b.Uvarint(0) // cid
		b.Uvarint(1) // host
		b.Varint(int64(rid))
	}
	secs := sectionsOf(s)
	for i := range secs {
		if secs[i].kind == kindLog {
			secs[i].body = b.Bytes()
		}
	}
	return encodeSections(secs)
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	el := synth.Log("sts", 6, 20, 5)
	m := pm.CallTopDirs{Depth: 2}
	s := foldRange(el, m, 0, 6)
	path := filepath.Join(t.TempDir(), "part.sts")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(got), Encode(s)) {
		t.Error("file round trip changed the snapshot")
	}
	// A torn file (crash mid-write simulated by truncation) must be
	// detected on read, not silently produce partial aggregates.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, m); err == nil {
		t.Error("torn snapshot file read back cleanly")
	}
}
