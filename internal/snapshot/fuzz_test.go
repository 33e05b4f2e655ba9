package snapshot

import (
	"bytes"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/synth/profiles"
)

// FuzzSnapshotDecode drives decode with mutated snapshot files: seeds
// are real version-4 snapshots of the adversarial generator profiles
// (the hostileargs renderings among them), bit-flipped variants, a
// well-framed snapshot whose stats spans descend in start, one that
// carries the retired kind-4 section, two whose
// behavior subjects are out of order or repeated, two whose
// activity-log variants are out of order or repeated, and two whose
// activity-log variant miscounts its cases. The
// decoder must never panic and never allocate proportionally to a
// hostile count; when it does accept an input, the decoded state must
// re-encode and re-decode to a fixed point (a canonical snapshot).
func FuzzSnapshotDecode(f *testing.F) {
	m := pm.CallTopDirs{Depth: 2}
	for _, name := range []string{"baseline", "hostileargs", "widevocab"} {
		p, ok := profiles.Lookup(name)
		if !ok {
			f.Fatalf("profile %s missing", name)
		}
		el := p.Generate("fz", 4, 16, 20240924)
		s := foldRange(el, m, 0, 4)
		enc := Encode(s)
		f.Add(enc)
		// Bit-flipped variants seed the mutator with near-valid files.
		for _, pos := range []int{2, len(enc) / 3, len(enc) / 2, len(enc) - 5} {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 0x41
			f.Add(mut)
		}
		f.Add(enc[:len(enc)*2/3])
		f.Add(descendingStartSnapshot(s))
		f.Add(retiredKindSnapshot(s))
	}
	f.Add([]byte{})
	f.Add([]byte("STS1"))
	// Behavior subjects out of order and repeated.
	s := foldRange(profiles.All()[0].Generate("fz", 2, 16, 1), m, 0, 2)
	f.Add(unsortedBehaviorSnapshot(s, "/a"))
	f.Add(unsortedBehaviorSnapshot(s, "/b"))
	// Log variants out of order and repeated.
	for _, second := range []string{"/a", "/b"} {
		enc := unsortedLogSnapshot(s, second)
		if _, err := decode(enc, m); err == nil {
			f.Fatalf("log variant %s after ⟨read:/b⟩ decoded cleanly", second)
		}
		f.Add(enc)
	}
	// A log variant with multiplicity 0, and one with fewer cases than
	// its multiplicity.
	one := foldRange(profiles.All()[0].Generate("fz", 1, 16, 1), m, 0, 1)
	for _, mult := range []int{0, 2} {
		one.Log.Variants()[0].Mult = mult
		enc := Encode(one)
		if _, err := decode(enc, m); err == nil {
			f.Fatalf("log variant of multiplicity %d with one case decoded cleanly", mult)
		}
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(data, m)
		if err != nil {
			return
		}
		// Accepted input: encoding must be a fixed point, so a decoded
		// snapshot behaves identically to one built in-process.
		re := Encode(s)
		s2, err := decode(re, m)
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(Encode(s2), re) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}
