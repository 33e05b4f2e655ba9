package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"stinspector/internal/behavior"
	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot/wire"
	"stinspector/internal/stats"
	"stinspector/internal/synth"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// foldRange builds the snapshot of a sequential fold over a contiguous
// slice of the synth corpus — the reference state the container tests
// split, merge and round-trip.
func foldRange(el *trace.EventLog, m pm.Mapping, lo, hi int) *Snapshot {
	sm := pm.NewSymMapper(m)
	pmB := pm.NewBuilderSym(sm, pm.BuildOptions{Endpoints: true})
	dfgB := dfg.NewBuilderSym(sm.Acts())
	stC := stats.NewComputerSym(sm)
	bh := behavior.New()
	s := &Snapshot{}
	for _, c := range el.Cases()[lo:hi] {
		s.Cases++
		s.Events += len(c.Events)
		s.Seen = append(s.Seen, c.ID)
		buf := sm.MapCase(c, nil)
		if seq, ok := pmB.AddMapped(c.ID, buf); ok {
			dfgB.AddSymVariant(seq, 1)
		}
		stC.AddMapped(c, buf)
		bh.AddCase(c)
	}
	s.Log = pmB.Finalize()
	s.DFG = dfgB.Finalize()
	s.Stats = stC
	s.Behavior = bh
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	el := synth.Log("sts", 20, 40, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	s := foldRange(el, m, 0, 20)
	enc := Encode(s)
	got, err := Decode(enc, m)
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
		if _, err := Decode(enc[:cut], m); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	// Flip one bit in every byte position: header, section prefixes,
	// bodies, CRCs, index and footer are each covered by a check.
	mut := make([]byte, len(enc))
	for pos := 0; pos < len(enc); pos++ {
		copy(mut, enc)
		mut[pos] ^= 0x10
		got, err := Decode(mut, m)
		if err == nil {
			// A flip inside an unchecked gap would have to reproduce
			// identical state to be acceptable; require detection.
			if !bytes.Equal(Encode(got), enc) {
				t.Fatalf("bit flip at %d decoded to different state without error", pos)
			}
		}
	}
	var ce *wire.CorruptError
	if _, err := Decode(enc[:len(enc)-1], m); !errors.As(err, &ce) {
		t.Errorf("truncated file: err = %v, want CorruptError", err)
	}
	if _, err := Decode([]byte("not a snapshot at all, definitely"), m); !errors.As(err, &ce) {
		t.Errorf("garbage: err = %v, want CorruptError", err)
	}
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
