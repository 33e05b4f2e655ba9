package pm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// add folds one materialized trace into the log, building a Log by
// hand without a Builder: the activities are interned into the log's
// table and a new variant joins the canonical order.
func (l *Log) add(seq Trace, id trace.CaseID) {
	if l.acts == nil {
		l.acts = intern.NewLocal()
		l.bySyms = make(map[string]*Variant)
	}
	syms := make([]intern.Sym, len(seq))
	for i, a := range seq {
		syms[i] = l.acts.Intern(string(a))
	}
	key := string(symKey(nil, syms))
	v, ok := l.bySyms[key]
	if !ok {
		v = &Variant{Seq: l.trace(syms), Syms: syms}
		l.bySyms[key] = v
		l.variants = mergeVariants(l.variants, []*Variant{v})
	}
	v.Mult++
	v.Cases = append(v.Cases, id)
}

// mergeCase builds a one-variant case whose trace is determined by kind,
// so tests can steer which cases collapse into which variants.
func mergeCase(rid int, kind int) *trace.Case {
	evs := []trace.Event{
		{Call: "read", FP: "/usr/lib/a.so", Start: 1, Dur: 10 * time.Microsecond, Size: 100},
	}
	for i := 0; i < kind; i++ {
		evs = append(evs, trace.Event{Call: "write", FP: "/dev/pts/7", Start: time.Duration(2 + i), Dur: 10 * time.Microsecond, Size: 50})
	}
	return trace.NewCase(trace.CaseID{CID: "m", Host: "h", RID: rid}, evs)
}

// mergeAll folds logs into a fresh zero Log with Log.Merge, in order.
func mergeAll(logs ...*Log) *Log {
	out := &Log{}
	for _, l := range logs {
		out.Merge(l)
	}
	return out
}

// TestMergeLogsReproducesSequential is the pm merge law: round-robin the
// cases of a log over k partial builders, fold the partials into the
// first with Log.Merge in shard order (as a snapshot merge does), and
// the result must equal the sequential fold in every field — variant
// order, multiplicities, interleaved case lists, event counters.
func TestMergeLogsReproducesSequential(t *testing.T) {
	m := CallTopDirs{Depth: 2}
	opts := BuildOptions{Endpoints: true}
	var cases []*trace.Case
	for rid := 0; rid < 37; rid++ {
		cases = append(cases, mergeCase(rid, rid%5))
	}
	seq := newBuilder(m, opts)
	for _, c := range cases {
		seq.add(c)
	}
	want := seq.Finalize()

	for shards := 1; shards <= 6; shards++ {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			builders := make([]*Builder, shards)
			for i := range builders {
				builders[i] = newBuilder(m, opts)
			}
			// Round-robin blocks of 3 cases, like the sharded fold engine.
			for i, c := range cases {
				builders[(i/3)%shards].add(c)
			}
			logs := make([]*Log, shards)
			for i, b := range builders {
				logs[i] = b.Finalize()
			}
			got := logs[0]
			for _, l := range logs[1:] {
				got.Merge(l)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged log differs from sequential fold:\ngot  %s\nwant %s", got, want)
			}
			// The case lists must be the exact CaseID interleave, not
			// just the same multiset.
			for i, v := range got.Variants() {
				if !reflect.DeepEqual(v.Cases, want.Variants()[i].Cases) {
					t.Errorf("variant %d case list = %v, want %v", i, v.Cases, want.Variants()[i].Cases)
				}
			}
		})
	}
}

// TestMergeLeavesInputUsable: Merge copies, so mutating the merged
// output must not reach back into its argument, which stays valid.
func TestMergeLeavesInputUsable(t *testing.T) {
	m := CallTopDirs{Depth: 2}
	b := newBuilder(m, BuildOptions{})
	b.add(mergeCase(1, 0))
	in := b.Finalize()
	out := mergeAll(in, in)
	out.Variants()[0].Cases[0] = trace.CaseID{CID: "mutated"}
	if in.Variants()[0].Cases[0].CID != "m" {
		t.Errorf("merge aliased the input's case list: %v", in.Variants()[0].Cases)
	}
	if in.NumTraces() != 1 || out.NumTraces() != 2 {
		t.Errorf("traces = %d/%d, want 1/2", in.NumTraces(), out.NumTraces())
	}
}

// TestMergeLogsEmpty: the zero Log is empty and usable, and merging
// nil or empty logs is the identity of the merge monoid.
func TestMergeLogsEmpty(t *testing.T) {
	empty := &Log{}
	if empty.NumTraces() != 0 || empty.NumVariants() != 0 {
		t.Errorf("zero Log = %d traces, %d variants", empty.NumTraces(), empty.NumVariants())
	}
	b := newBuilder(CallTopDirs{Depth: 2}, BuildOptions{})
	b.add(mergeCase(1, 1))
	l := b.Finalize()
	got := mergeAll(nil, empty, l)
	if got.NumTraces() != 1 || got.MappedEvents() != l.MappedEvents() {
		t.Errorf("identity law violated: %s", got)
	}
}

// TestUnionLogsVariantOrdering pins the deterministic variant order of a
// union of activity-logs by Log.Merge: lexicographic by trace key,
// whatever order the inputs present their variants in.
func TestUnionLogsVariantOrdering(t *testing.T) {
	m := CallTopDirs{Depth: 2}
	build := func(rids ...int) *Log {
		b := newBuilder(m, BuildOptions{})
		for _, rid := range rids {
			b.add(mergeCase(rid, rid%3))
		}
		return b.Finalize()
	}
	// Log A sees kinds 1,2 (in that order of first appearance), log B
	// sees kinds 2,0 — their union must come out in key order, not in
	// either insertion order.
	u := build(1, 2)
	u.Merge(build(5, 3))
	var got []string
	for _, v := range u.Variants() {
		got = append(got, v.Seq.String())
	}
	want := []string{
		"⟨read:/usr/lib⟩",
		"⟨read:/usr/lib, write:/dev/pts⟩",
		"⟨read:/usr/lib, write:/dev/pts, write:/dev/pts⟩",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("union variant order = %v, want %v", got, want)
	}
	keys := u.Variants()
	for i := 1; i < len(keys); i++ {
		if keys[i-1].Seq.key() >= keys[i].Seq.key() {
			t.Errorf("variants not in key order at %d: %q >= %q", i, keys[i-1].Seq.key(), keys[i].Seq.key())
		}
	}
	// Argument order must not matter for the variant sequence either.
	rev := build(5, 3)
	rev.Merge(build(1, 2))
	var gotRev []string
	for _, v := range rev.Variants() {
		gotRev = append(gotRev, v.Seq.String())
	}
	if !reflect.DeepEqual(gotRev, want) {
		t.Errorf("reversed union variant order = %v, want %v", gotRev, want)
	}
}

// TestUnionLogsPadsShortCaseLists: Log.Merge keeps summing the
// multiplicities of hand-built variants with fewer recorded cases than
// their multiplicity, and pads the case list with zero CaseIDs.
func TestUnionLogsPadsShortCaseLists(t *testing.T) {
	mk := func() *Log {
		l := &Log{}
		l.add(Trace{"read:/usr/lib"}, trace.CaseID{CID: "x", Host: "h", RID: 1})
		v := l.variants[0]
		v.Mult = 3 // two counts without recorded cases
		return l
	}
	u := mk()
	u.Merge(mk())
	if u.NumTraces() != 6 {
		t.Fatalf("traces = %d, want 6", u.NumTraces())
	}
	v := u.Variants()[0]
	if len(v.Cases) != 6 {
		t.Fatalf("case list = %v, want length 6", v.Cases)
	}
	real := 0
	for _, id := range v.Cases {
		if id != (trace.CaseID{}) {
			real++
		}
	}
	if real != 2 {
		t.Errorf("real case ids = %d, want 2 (%v)", real, v.Cases)
	}
}

// TestFinalizeOrderInvariant: folding the same cases in any order —
// live ingestion delivers completion order, not CaseID order — must
// finalize to the identical Log content, case lists included. This is
// the pm half of the live-path byte-equivalence guarantee. The fold
// order decides which activity gets the smaller symbol, so the logs
// are compared by their canonical encoding, not field by field.
func TestFinalizeOrderInvariant(t *testing.T) {
	m := CallTopDirs{Depth: 2}
	opts := BuildOptions{Endpoints: true}
	var cases []*trace.Case
	for rid := 0; rid < 29; rid++ {
		cases = append(cases, mergeCase(rid, rid%4))
	}
	// Cases that open with a write: folded first, as the reversed
	// permutation folds them, they give write:/dev/pts a smaller symbol
	// than read:/usr/lib, so a variant order by symbol rather than by
	// string would depend on the fold order.
	for rid := 29; rid < 33; rid++ {
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "m", Host: "h", RID: rid}, []trace.Event{
			{Call: "write", FP: "/dev/pts/7", Start: 1, Dur: 10 * time.Microsecond, Size: 50},
			{Call: "read", FP: "/usr/lib/a.so", Start: 2, Dur: 10 * time.Microsecond, Size: 100},
		}))
	}
	seq := newBuilder(m, opts)
	for _, c := range cases {
		seq.add(c)
	}
	want := seq.Finalize()

	perms := [][]int{reversed(len(cases)), strided(len(cases), 7)}
	for pi, perm := range perms {
		b := newBuilder(m, opts)
		for _, i := range perm {
			b.add(cases[i])
		}
		got := b.Finalize()
		if !bytes.Equal(got.EncodeSnapshot(), want.EncodeSnapshot()) {
			t.Errorf("perm %d: out-of-order fold finalized differently:\ngot  %s\nwant %s", pi, got, want)
		}
	}
}

func reversed(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// strided enumerates 0..n-1 by a stride coprime to n-ish, a cheap
// deterministic shuffle.
func strided(n, step int) []int {
	out := make([]int, 0, n)
	seen := make([]bool, n)
	for i := 0; len(out) < n; i = (i + step) % n {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		} else {
			i = (i + 1) % n
			continue
		}
	}
	return out
}
