package pm

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// Trace is an activity trace σ_f(c): the sequence of activities of the
// mapped events of one case, in event order (Equation 5).
type Trace []Activity

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
	// Seq is the trace as activity strings, materialized from the
	// log's activity table (it shares the table's strings).
	Seq Trace
	// Syms is the same trace in the log's activity table (Log.Acts).
	Syms  []intern.Sym
	Mult  int
	Cases []trace.CaseID
}

// compareVariants is the canonical variant order: elementwise string
// order over Seq, a proper prefix first. For activities without a NUL
// byte it is the order of the traces joined by NUL separators.
func compareVariants(a, b *Variant) int { return slices.Compare(a.Seq, b.Seq) }

// Log is the activity-log L_f(C) ∈ B(A_f*): a multiset of traces over the
// activity alphabet, stored as variants. It keeps the activity table its
// variants' symbol sequences index, and the variants in the canonical
// order of compareVariants for reproducible output. The zero Log is
// empty and ready to Merge into.
type Log struct {
	acts     *intern.Local
	variants []*Variant
	bySyms   map[string]*Variant // key: symKey(Variant.Syms)
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
// The builder works in symbol space: events map to dense activity
// symbols through a SymMapper, variants are keyed by the raw symbol
// sequence, and per-event work involves no string building at all.
// Finalize hands the variants and the mapper's activity table to the
// Log, whose strings are the table's own.
type Builder struct {
	sm   *SymMapper
	opts BuildOptions

	vars map[string]*Variant // key: symKey(Variant.Syms)

	startSym, endSym intern.Sym

	seqbuf  []intern.Sym // per-case activity sequence, reused
	keybuf  []byte       // per-case variant key, reused
	symsbuf []intern.Sym // per-case MapCase output, reused (add path)

	mapped, unmapped int
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
	b := &Builder{sm: sm, opts: opts, vars: make(map[string]*Variant, 16)}
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
		v = &Variant{Syms: slices.Clone(seq)}
		b.vars[string(b.keybuf)] = v
	}
	v.Mult++
	v.Cases = append(v.Cases, id)
}

// symKey appends the little-endian byte form of the symbol sequence —
// an injective, allocation-free variant key.
func symKey(dst []byte, seq []intern.Sym) []byte {
	for _, y := range seq {
		dst = append(dst, byte(y), byte(y>>8), byte(y>>16), byte(y>>24))
	}
	return dst
}

// Finalize materializes each variant's trace, puts the variants in
// canonical order and returns the Log, which keeps the builder's
// variants and its SymMapper's activity table. The builder must not be
// used afterwards.
func (b *Builder) Finalize() *Log {
	l := &Log{
		acts:     b.sm.acts,
		variants: make([]*Variant, 0, len(b.vars)),
		bySyms:   b.vars,
		mapped:   b.mapped,
		unmapped: b.unmapped,
	}
	for _, v := range b.vars {
		v.Seq = l.trace(v.Syms)
		// Case lists accumulate in fold order. Batch ingestion folds in
		// CaseID order, so this sort is a no-op there; live ingestion
		// folds in completion order, and canonicalizing here is what
		// makes its final artifacts byte-identical to a batch run.
		sort.Slice(v.Cases, func(i, j int) bool { return v.Cases[i].Less(v.Cases[j]) })
		l.variants = append(l.variants, v)
	}
	slices.SortFunc(l.variants, compareVariants)
	return l
}

// trace materializes a symbol sequence of the log's table as activity
// strings; the strings are the table's, so only the slice is allocated.
func (l *Log) trace(syms []intern.Sym) Trace {
	out := make(Trace, len(syms))
	for i, y := range syms {
		out[i] = Activity(l.acts.Str(y))
	}
	return out
}

// Acts returns the activity table that every variant's Syms index; Str
// materializes a symbol. It is nil for a zero Log that nothing was
// merged into. Callers only read it: finalized artifacts of one log are
// built concurrently.
func (l *Log) Acts() *intern.Local { return l.acts }

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
// L_f(C_a) ∪ L_f(C_b) that shard joins, checkpoint epochs and snapshot
// merges use. o's activity table is remapped into l's once (a zero l
// gets a fresh table first), and each of o's variants is looked up by
// its remapped symbol sequence. Variant multiplicities and the
// mapped/unmapped counters are integer sums, and each variant's case
// list is stitched by a stable sorted merge on CaseID (ties keep l's
// entries first). When every input's per-variant case list is
// ascending — true for any finalized log — merging shard partials in
// any order reproduces the sequential fold byte-for-byte.
// o's variants are copied; o stays usable. The cost is o's size plus
// one linear merge of the variants new to l (already in canonical
// order, as o's are) into l's: the history already in l is neither
// rebuilt nor re-keyed.
func (l *Log) Merge(o *Log) {
	if o == nil {
		return
	}
	l.mapped += o.mapped
	l.unmapped += o.unmapped
	if o.acts == nil {
		return
	}
	if l.acts == nil {
		l.acts = intern.NewLocal()
		l.bySyms = make(map[string]*Variant, len(o.variants))
	}
	r := o.acts.RemapInto(l.acts)
	var fresh []*Variant
	var syms []intern.Sym
	var key []byte
	for _, ov := range o.variants {
		syms = syms[:0]
		for _, y := range ov.Syms {
			syms = append(syms, r[y])
		}
		key = symKey(key[:0], syms)
		if v, ok := l.bySyms[string(key)]; ok {
			// trace.MergeCaseIDs never aliases its second list, so o's
			// list can be read in place here; only the new-variant
			// branch below needs its own copy.
			v.Cases = trace.MergeCaseIDs(paddedCasesInPlace(v), paddedCasesInPlace(ov))
			v.Mult += ov.Mult
			continue
		}
		v := &Variant{Seq: l.trace(syms), Syms: slices.Clone(syms), Mult: ov.Mult, Cases: paddedCases(ov)}
		l.bySyms[string(key)] = v
		fresh = append(fresh, v)
	}
	l.variants = mergeVariants(l.variants, fresh)
}

// mergeVariants merges b, in canonical order and new to a, into a's
// canonical order in place, from the back, and returns the extended a.
// b must not share a's backing array.
func mergeVariants(a, b []*Variant) []*Variant {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...)
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && compareVariants(a[i], b[j]) > 0 {
			a[k], i = a[i], i-1
		} else {
			a[k], j = b[j], j-1
		}
	}
	return a
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
