package pm

import (
	"sort"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
)

// EncodeSnapshot serializes the activity-log for durable storage. Every
// string — activities and the case-identity CID/Host components — is
// written once in a per-snapshot intern dictionary, in first-use order
// over the deterministic variant order, so the encoding is a pure
// function of the log's content: identical logs encode to identical
// bytes whatever process produced them.
//
// Layout (wrapped in a checksummed section by internal/snapshot):
//
//	dict:     n | string*
//	counters: mapped | unmapped
//	variants: n | (seqLen | actSym* | mult | nCases | (cidSym hostSym rid)*)*
func (l *Log) EncodeSnapshot() []byte {
	// One pass: the payload is written while the dictionary assigns ids
	// in first-use order, and the dictionary is prepended at the end.
	dict := intern.NewLocal()
	sym := func(s string) uint64 { return uint64(dict.Intern(s)) }
	var b wire.Buf
	b.Uvarint(uint64(l.mapped))
	b.Uvarint(uint64(l.unmapped))
	b.Uvarint(uint64(len(l.variants)))
	for _, v := range l.variants {
		b.Uvarint(uint64(len(v.Seq)))
		for _, a := range v.Seq {
			b.Uvarint(sym(string(a)))
		}
		b.Uvarint(uint64(v.Mult))
		b.Uvarint(uint64(len(v.Cases)))
		for _, id := range v.Cases {
			b.CaseID(id, sym)
		}
	}
	var out wire.Buf
	out.Dict(dict.Strs())
	out.Raw(b.Bytes())
	return out.Bytes()
}

// DecodeLogSnapshot reconstructs an activity-log from EncodeSnapshot
// bytes. Every reference is range-checked against the dictionary:
// hostile input yields a wire.CorruptError, never a panic or a garbage
// log. Every variant must record exactly one case per count, as the
// encoder always writes: a short list would be padded with zero CaseIDs
// by Merge and then split into the wrong subset by dfg.Split.
func DecodeLogSnapshot(data []byte) (*Log, error) {
	c := wire.NewCursor(data)
	dict, err := c.Dict()
	if err != nil {
		return nil, err
	}

	l := &Log{}
	if l.mapped, err = c.Int(); err != nil {
		return nil, err
	}
	if l.unmapped, err = c.Int(); err != nil {
		return nil, err
	}
	nv, err := c.Count(2)
	if err != nil {
		return nil, err
	}
	l.byKey = make(map[string]*Variant, nv)
	type keyed struct {
		key string
		v   *Variant
	}
	out := make([]keyed, 0, nv)
	for i := 0; i < nv; i++ {
		ns, err := c.Count(1)
		if err != nil {
			return nil, err
		}
		seq := make(Trace, ns)
		for j := range seq {
			s, err := c.Ref(dict)
			if err != nil {
				return nil, err
			}
			seq[j] = Activity(s)
		}
		mult, err := c.Int()
		if err != nil {
			return nil, err
		}
		if mult < 1 {
			return nil, wire.Corruptf("variant %d: multiplicity %d", i, mult)
		}
		nc, err := c.Count(3)
		if err != nil {
			return nil, err
		}
		if nc != mult {
			return nil, wire.Corruptf("variant %d: %d cases for multiplicity %d", i, nc, mult)
		}
		cases := make([]trace.CaseID, nc)
		for j := range cases {
			if cases[j], err = c.CaseID(dict); err != nil {
				return nil, err
			}
		}
		key := seq.key()
		// A well-formed snapshot never repeats a variant key; fold
		// duplicates the way the builder would rather than dropping data.
		if v, ok := l.byKey[key]; ok {
			v.Cases = trace.MergeCaseIDs(v.Cases, cases)
			v.Mult += mult
			continue
		}
		v := &Variant{Seq: seq, Mult: mult, Cases: cases}
		l.byKey[key] = v
		out = append(out, keyed{key: key, v: v})
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	l.variants = make([]*Variant, len(out))
	l.keys = make([]string, len(out))
	for i, kv := range out {
		l.variants[i] = kv.v
		l.keys[i] = kv.key
	}
	return l, nil
}
