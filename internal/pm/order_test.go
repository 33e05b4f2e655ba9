package pm

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// key is the NUL-joined string form of a trace, the variant key the
// canonical order was once defined by. It is the reference
// compareVariants is checked against.
func (t Trace) key() string {
	parts := make([]string, len(t))
	for i, a := range t {
		parts[i] = string(a)
	}
	return strings.Join(parts, "\x00")
}

// TestCanonicalOrderMatchesKeyOrder: over non-empty traces of
// activities without a NUL byte, sorting variants by compareVariants
// equals sorting them by their NUL-joined key, and so does merging two
// sorted halves with mergeVariants. The alphabet holds the
// empty activity, activities that are proper prefixes of others and the
// smallest non-NUL byte, and traces extend prefixes of earlier ones, so
// long shared prefixes and traces that are prefixes of others are
// common.
func TestCanonicalOrderMatchesKeyOrder(t *testing.T) {
	alphabet := []Activity{"", "\x01", "a", "a\x01", "ab", "abc", "b",
		"read:/usr", "read:/usr/lib", "write:/usr", Start, End}
	rng := rand.New(rand.NewSource(20240924))
	for round := 0; round < 300; round++ {
		keys := map[string]bool{}
		var vs []*Variant
		for len(vs) < 40 {
			var seq Trace
			if len(vs) > 0 && rng.Intn(3) > 0 {
				base := vs[rng.Intn(len(vs))].Seq
				seq = append(seq, base[:rng.Intn(len(base)+1)]...)
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				seq = append(seq, alphabet[rng.Intn(len(alphabet))])
			}
			if keys[seq.key()] {
				continue
			}
			keys[seq.key()] = true
			vs = append(vs, &Variant{Seq: seq})
		}
		byCmp := slices.Clone(vs)
		slices.SortFunc(byCmp, compareVariants)
		byKey := slices.Clone(vs)
		sort.Slice(byKey, func(i, j int) bool { return byKey[i].Seq.key() < byKey[j].Seq.key() })
		// Merge's linear merge of two sorted halves lands on the same
		// order.
		cut := rng.Intn(len(vs) + 1)
		lo, hi := slices.Clone(vs[:cut]), slices.Clone(vs[cut:])
		slices.SortFunc(lo, compareVariants)
		slices.SortFunc(hi, compareVariants)
		merged := mergeVariants(lo, hi)
		for i := range byCmp {
			if byCmp[i] != byKey[i] {
				t.Fatalf("round %d: position %d is %q by the comparator, %q by key", round, i, byCmp[i].Seq, byKey[i].Seq)
			}
			if merged[i] != byKey[i] {
				t.Fatalf("round %d: position %d is %q after mergeVariants, %q by key", round, i, merged[i].Seq, byKey[i].Seq)
			}
		}
	}
}
