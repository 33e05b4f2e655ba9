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

// Key returns a canonical string form used to group identical traces into
// variants. Activities never contain the NUL separator.
func (t Trace) Key() string {
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
type Log struct {
	variants []*Variant
	// keys[i] is variants[i].Seq.Key(), kept beside the variants so the
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
	Endpoints bool
	// KeepEmpty keeps cases whose every event is outside the mapping
	// domain as empty traces (which contribute a single ●→■ edge when
	// Endpoints is set). When false such cases are dropped.
	KeepEmpty bool
}

// Build derives the activity-log of an event-log under a mapping
// (Section IV: "an activity-log can be seen as a query and an abstraction
// applied to an event-log through the mapping f"). It is the
// materializing form of Builder: cases are folded in CaseID order.
func Build(el *trace.EventLog, m Mapping, opts BuildOptions) *Log {
	b := NewBuilder(m, opts)
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

// NewBuilder returns an empty builder for the mapping and options.
func NewBuilder(m Mapping, opts BuildOptions) *Builder {
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

// Mapper returns the builder's symbol mapper.
func (b *Builder) Mapper() *SymMapper { return b.sm }

// Add maps one case's events and folds the resulting trace into the
// log. It returns the derived trace and whether the case contributed
// (false when every event fell outside the mapping domain and
// KeepEmpty is unset). The returned Trace is materialized for the
// caller; the zero-allocation path is AddMapped.
func (b *Builder) Add(c *trace.Case) (Trace, bool) {
	seq, ok := b.add(c)
	if !ok {
		return nil, false
	}
	return b.materialize(seq), true
}

// add is Add without the Trace materialization.
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
	if n == 0 && !b.opts.KeepEmpty {
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
		key := seq.Key()
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

// add folds one materialized trace into the log — the hand-construction
// path used by tests and tools building Logs without a Builder.
func (l *Log) add(seq Trace, id trace.CaseID) {
	key := seq.Key()
	v, ok := l.byKey[key]
	if !ok {
		v = &Variant{Seq: seq}
		l.insertVariant(key, v)
	}
	v.Mult++
	v.Cases = append(v.Cases, id)
}

// insertVariant registers a new variant under key, keeping the variants
// slice in its deterministic lexicographic-by-key order.
func (l *Log) insertVariant(key string, v *Variant) {
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

// NumActivities returns the total number of activity occurrences,
// counting multiplicity and excluding the virtual endpoints.
func (l *Log) NumActivities() int {
	n := 0
	for _, v := range l.variants {
		k := 0
		for _, a := range v.Seq {
			if !a.IsVirtual() {
				k++
			}
		}
		n += k * v.Mult
	}
	return n
}

// MappedEvents returns how many events fell inside the mapping domain
// during construction; UnmappedEvents how many were excluded.
func (l *Log) MappedEvents() int   { return l.mapped }
func (l *Log) UnmappedEvents() int { return l.unmapped }

// Activities returns the sorted alphabet A_f actually observed, excluding
// the virtual endpoints.
func (l *Log) Activities() []Activity {
	set := make(map[Activity]bool)
	for _, v := range l.variants {
		for _, a := range v.Seq {
			if !a.IsVirtual() {
				set[a] = true
			}
		}
	}
	out := make([]Activity, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds another activity-log into l — the exact multiset union
// underlying both UnionLogs and the sharded analysis fold. Variant
// multiplicities and the mapped/unmapped counters are integer sums, and
// each variant's case list is stitched by a stable sorted merge on
// CaseID (ties keep l's entries first). When every input's per-variant
// case list is ascending — true for any log a Builder was fed in CaseID
// order, which is what every streaming source delivers — merging shard
// partials in any order reproduces the sequential fold byte-for-byte.
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

// MergeLogs merges partial activity-logs (shard partials of one logical
// fold) into a new log; the inputs stay usable. nil inputs are skipped.
func MergeLogs(logs ...*Log) *Log {
	out := &Log{byKey: make(map[string]*Variant)}
	for _, l := range logs {
		out.Merge(l)
	}
	return out
}

// UnionLogs returns the multiset union of activity-logs, for example
// L_f(C_x) = L_f(C_a) ∪ L_f(C_b). It is MergeLogs under the paper's
// name: variants stay in the deterministic lexicographic-by-key order,
// and each variant's case list is merged in CaseID order.
func UnionLogs(logs ...*Log) *Log { return MergeLogs(logs...) }

// TopVariants returns the k most frequent variants (ties broken by the
// deterministic variant order). Trace-variant ranking is the standard
// first look at an event-log in process mining: a handful of variants
// usually covers almost all cases.
func (l *Log) TopVariants(k int) []*Variant {
	out := append([]*Variant(nil), l.variants...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Mult > out[j].Mult })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Coverage returns the fraction of traces covered by the k most frequent
// variants (1.0 when k ≥ NumVariants).
func (l *Log) Coverage(k int) float64 {
	total := l.NumTraces()
	if total == 0 {
		return 1
	}
	n := 0
	for _, v := range l.TopVariants(k) {
		n += v.Mult
	}
	return float64(n) / float64(total)
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
