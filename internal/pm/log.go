package pm

import (
	"fmt"
	"sort"
	"strings"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// Trace is an activity trace σ_f(c): the sequence of activities of the
// mapped events of one case, in event order (Equation 5).
type Trace []Activity

// key returns a canonical string form used to group identical traces into
// variants. Activities never contain the NUL separator.
func (t Trace) key() string {
	parts := make([]string, len(t))
	for i, a := range t {
		parts[i] = string(a)
	}
	return strings.Join(parts, "\x00")
}

// String renders the trace in the paper's ⟨a1, a2, ...⟩ notation.
func (t Trace) String() string {
	parts := make([]string, len(t))
	for i, a := range t {
		parts[i] = string(a)
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}

// Variant is one distinct trace together with its multiplicity in the
// activity-log and the cases that produced it. The paper writes
// ⟨a, a, b⟩² for a variant with multiplicity 2.
type Variant struct {
	Seq   Trace
	Mult  int
	Cases []trace.CaseID
}

// Log is the activity-log L_f(C) ∈ B(A_f*): a multiset of traces over the
// activity alphabet, stored as variants. Variants are kept in a
// deterministic order (lexicographic by key) for reproducible output.
// The zero Log is empty and ready to Merge into.
type Log struct {
	variants []*Variant
	// keys[i] is variants[i].Seq.key(), kept beside the variants so the
	// ordered insert and Merge never rebuild a key.
	keys  []string
	byKey map[string]*Variant
	// mapped/unmapped count events inside/outside the mapping domain.
	mapped   int
	unmapped int
}

// BuildOptions configures activity-log construction.
type BuildOptions struct {
	// Endpoints appends the virtual start (●) and end (■) activities
	// to every trace, as the paper does before constructing the DFG.
	// A case whose every event is outside the mapping domain is always
	// dropped, so it adds no ●→■ edge.
	Endpoints bool
}

// Build derives the activity-log of an event-log under a mapping
// (Section IV: "an activity-log can be seen as a query and an abstraction
// applied to an event-log through the mapping f"). It is the
// materializing form of Builder: cases are folded in CaseID order.
func Build(el *trace.EventLog, m Mapping, opts BuildOptions) *Log {
	b := newBuilder(m, opts)
	for _, c := range el.Cases() {
		b.add(c)
	}
	return b.Finalize()
}

// Builder accumulates an activity-log one case at a time — the
// incremental form of Build that the streaming pipeline feeds, so the
// activity-log of a trace set can be derived without the event-log ever
// being materialized. Feeding cases in CaseID order yields exactly the
// Log that Build produces.
//
// Internally the builder works in symbol space: events map to dense
// activity symbols through a SymMapper, variants are keyed by the raw
// symbol sequence, and per-event work involves no string building at
// all. Finalize materializes the accumulated state into the exact
// string-keyed Log the pre-symbol implementation produced.
type Builder struct {
	sm   *SymMapper
	opts BuildOptions

	vars map[string]*symVariant // key: little-endian symbol bytes

	startSym, endSym intern.Sym

	seqbuf  []intern.Sym // per-case activity sequence, reused
	keybuf  []byte       // per-case variant key, reused
	symsbuf []intern.Sym // per-case MapCase output, reused (add path)

	mapped, unmapped int
}

// symVariant is a variant in symbol space.
type symVariant struct {
	seq   []intern.Sym
	mult  int
	cases []trace.CaseID
}

// newBuilder returns an empty builder for the mapping and options.
func newBuilder(m Mapping, opts BuildOptions) *Builder {
	return NewBuilderSym(NewSymMapper(m), opts)
}

// NewBuilderSym returns an empty builder over a caller-supplied
// SymMapper, so one analysis shard's builders (activity-log, DFG,
// statistics) can share a single activity symbol table and map every
// event exactly once.
func NewBuilderSym(sm *SymMapper, opts BuildOptions) *Builder {
	b := &Builder{sm: sm, opts: opts, vars: make(map[string]*symVariant, 16)}
	b.startSym = sm.acts.Intern(string(Start))
	b.endSym = sm.acts.Intern(string(End))
	return b
}

// add maps one case's events and folds the resulting trace into the
// log, returning its activity sequence in symbol space (see AddMapped).
func (b *Builder) add(c *trace.Case) ([]intern.Sym, bool) {
	b.symsbuf = b.sm.MapCase(c, b.symsbuf[:0])
	return b.AddMapped(c.ID, b.symsbuf)
}

// AddMapped folds one case given its pre-mapped activity symbols (one
// entry per event, NoActivity for events outside the domain), as
// produced by the shared SymMapper's MapCase. It returns the case's
// activity sequence in symbol space — endpoints included when
// configured, valid only until the next Add/AddMapped call — so the
// caller can feed it to dfg.Builder.AddSymVariant without mapping the
// case twice.
func (b *Builder) AddMapped(id trace.CaseID, syms []intern.Sym) ([]intern.Sym, bool) {
	seq := b.seqbuf[:0]
	if b.opts.Endpoints {
		seq = append(seq, b.startSym)
	}
	n := 0
	for _, y := range syms {
		if y == NoActivity {
			b.unmapped++
			continue
		}
		b.mapped++
		seq = append(seq, y)
		n++
	}
	if n == 0 {
		b.seqbuf = seq
		return nil, false
	}
	if b.opts.Endpoints {
		seq = append(seq, b.endSym)
	}
	b.seqbuf = seq
	b.fold(seq, id)
	return seq, true
}

// fold counts the sequence into its variant.
func (b *Builder) fold(seq []intern.Sym, id trace.CaseID) {
	b.keybuf = symKey(b.keybuf[:0], seq)
	v, ok := b.vars[string(b.keybuf)] // no-alloc lookup
	if !ok {
		v = &symVariant{seq: append([]intern.Sym(nil), seq...)}
		b.vars[string(b.keybuf)] = v
	}
	v.mult++
	v.cases = append(v.cases, id)
}

// symKey appends the little-endian byte form of the symbol sequence —
// an injective, allocation-free variant key.
func symKey(dst []byte, seq []intern.Sym) []byte {
	for _, y := range seq {
		dst = append(dst, byte(y), byte(y>>8), byte(y>>16), byte(y>>24))
	}
	return dst
}

// materialize converts a symbol sequence into a Trace of activity
// strings.
func (b *Builder) materialize(seq []intern.Sym) Trace {
	out := make(Trace, len(seq))
	for i, y := range seq {
		out[i] = Activity(b.sm.acts.Str(y))
	}
	return out
}

// MergeFrom folds another builder's accumulated state into b,
// remapping o's shard-local symbols through b's tables — the symbol
// form of Log.Merge, used by the sharded analysis fold before a single
// Finalize. The same merge law holds: variant multiplicities and the
// mapped/unmapped counters are integer sums, case lists interleave in
// sorted CaseID order with b's entries first on ties, so merging shard
// partials in shard order reproduces the sequential fold exactly. o
// must not be used afterwards.
func (b *Builder) MergeFrom(o *Builder) {
	if o == nil {
		return
	}
	b.mapped += o.mapped
	b.unmapped += o.unmapped
	r := o.sm.acts.RemapInto(b.sm.acts)
	var seq []intern.Sym
	for _, ov := range o.vars {
		seq = seq[:0]
		for _, y := range ov.seq {
			seq = append(seq, r[y])
		}
		b.keybuf = symKey(b.keybuf[:0], seq)
		v, ok := b.vars[string(b.keybuf)]
		if !ok {
			b.vars[string(b.keybuf)] = &symVariant{
				seq:   append([]intern.Sym(nil), seq...),
				mult:  ov.mult,
				cases: ov.cases,
			}
			continue
		}
		v.cases = trace.MergeCaseIDs(v.cases, ov.cases)
		v.mult += ov.mult
	}
}

// Finalize materializes the accumulated state into a Log and returns
// it. The builder must not be used afterwards.
func (b *Builder) Finalize() *Log {
	l := &Log{
		byKey:    make(map[string]*Variant, len(b.vars)),
		mapped:   b.mapped,
		unmapped: b.unmapped,
	}
	type keyed struct {
		key string
		v   *Variant
	}
	out := make([]keyed, 0, len(b.vars))
	for _, sv := range b.vars {
		seq := b.materialize(sv.seq)
		key := seq.key()
		// Two distinct symbol sequences can collapse onto one string
		// key only if an activity embeds the NUL separator (outside
		// the documented Activity contract); fold them the way the
		// string-keyed builder always has.
		if v, ok := l.byKey[key]; ok {
			v.Cases = trace.MergeCaseIDs(v.Cases, sv.cases)
			v.Mult += sv.mult
			continue
		}
		v := &Variant{Seq: seq, Mult: sv.mult, Cases: sv.cases}
		l.byKey[key] = v
		out = append(out, keyed{key: key, v: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	l.variants = make([]*Variant, len(out))
	l.keys = make([]string, len(out))
	for i, kv := range out {
		l.keys[i] = kv.key
		// Case lists accumulate in fold order. Batch ingestion folds in
		// CaseID order, so this sort is a no-op there; live ingestion
		// folds in completion order, and canonicalizing here is what
		// makes its final artifacts byte-identical to a batch run.
		sort.Slice(kv.v.Cases, func(a, b int) bool { return kv.v.Cases[a].Less(kv.v.Cases[b]) })
		l.variants[i] = kv.v
	}
	return l
}

// insertVariant registers a new variant under key, keeping the variants
// slice in its deterministic lexicographic-by-key order.
func (l *Log) insertVariant(key string, v *Variant) {
	if l.byKey == nil {
		l.byKey = make(map[string]*Variant)
	}
	l.byKey[key] = v
	i := sort.SearchStrings(l.keys, key)
	l.variants = append(l.variants, nil)
	copy(l.variants[i+1:], l.variants[i:])
	l.variants[i] = v
	l.keys = append(l.keys, "")
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
}

// Variants returns the distinct traces with multiplicities, in
// deterministic order. The slice must not be mutated.
func (l *Log) Variants() []*Variant { return l.variants }

// NumVariants returns the number of distinct traces.
func (l *Log) NumVariants() int { return len(l.variants) }

// NumTraces returns the total number of traces counting multiplicity
// (= the number of cases that contributed).
func (l *Log) NumTraces() int {
	n := 0
	for _, v := range l.variants {
		n += v.Mult
	}
	return n
}

// MappedEvents returns how many events fell inside the mapping domain
// during construction; UnmappedEvents how many were excluded.
func (l *Log) MappedEvents() int   { return l.mapped }
func (l *Log) UnmappedEvents() int { return l.unmapped }

// Merge folds another activity-log into l — the exact multiset union
// L_f(C_a) ∪ L_f(C_b) that snapshot merges and checkpoint epochs use.
// Variant multiplicities and the mapped/unmapped counters are integer
// sums, and each variant's case list is stitched by a stable sorted
// merge on CaseID (ties keep l's entries first). When every input's
// per-variant case list is ascending — true for any log a Builder was
// fed in CaseID order, which is what every streaming source delivers —
// merging shard partials in any order reproduces the sequential fold
// byte-for-byte.
// o's variants are copied; o stays usable. The cost is o's size plus
// one ordered insert per variant new to l: the history already in l is
// neither copied nor re-keyed.
func (l *Log) Merge(o *Log) {
	if o == nil {
		return
	}
	l.mapped += o.mapped
	l.unmapped += o.unmapped
	for i, ov := range o.variants {
		key := o.keys[i]
		v, ok := l.byKey[key]
		if !ok {
			l.insertVariant(key, &Variant{Seq: ov.Seq, Mult: ov.Mult, Cases: paddedCases(ov)})
			continue
		}
		// trace.MergeCaseIDs never aliases its second list, so o's list
		// can be read in place here; only the retained new-variant branch
		// above needs its own copy.
		v.Cases = trace.MergeCaseIDs(paddedCasesInPlace(v), paddedCasesInPlace(ov))
		v.Mult += ov.Mult
	}
}

// paddedCases returns a copy of the variant's case list, padded with
// zero CaseIDs up to its multiplicity (a variant built by a Builder
// always records one case per count; hand-built logs may not).
func paddedCases(v *Variant) []trace.CaseID {
	out := make([]trace.CaseID, v.Mult)
	copy(out, v.Cases)
	return out
}

// paddedCasesInPlace is paddedCases without the copy when no padding is
// needed — the receiver side of Merge owns its list already.
func paddedCasesInPlace(v *Variant) []trace.CaseID {
	if len(v.Cases) == v.Mult {
		return v.Cases
	}
	return paddedCases(v)
}

// String renders the log in the paper's multiset notation, one variant
// per line.
func (l *Log) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, v := range l.variants {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s^%d", v.Seq, v.Mult)
	}
	b.WriteString("}")
	return b.String()
}
