package pm

import (
	"sort"

	"stinspector/internal/intern"
	"stinspector/internal/snapshot/wire"
	"stinspector/internal/trace"
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
	var b wire.Buf
	b.Uvarint(uint64(l.mapped))
	b.Uvarint(uint64(l.unmapped))
	b.Uvarint(uint64(len(l.variants)))
	for _, v := range l.variants {
		b.Uvarint(uint64(len(v.Seq)))
		for _, a := range v.Seq {
			b.Uvarint(uint64(dict.Intern(string(a))))
		}
		b.Uvarint(uint64(v.Mult))
		b.Uvarint(uint64(len(v.Cases)))
		for _, id := range v.Cases {
			b.Uvarint(uint64(dict.Intern(id.CID)))
			b.Uvarint(uint64(dict.Intern(id.Host)))
			b.Varint(int64(id.RID))
		}
	}
	return append(dict.AppendDict(nil), b.Bytes()...)
}

// DecodeLogSnapshot reconstructs an activity-log from EncodeSnapshot
// bytes. The dictionary strings are re-interned through a fresh scoped
// table in file order — reproducing the original symbol assignment —
// and every reference is range-checked: hostile input yields a
// wire.CorruptError, never a panic or a garbage log.
func DecodeLogSnapshot(data []byte) (*Log, error) {
	c := wire.NewCursor(data)
	nd, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	dict := intern.NewLocal()
	for i := 0; i < nd; i++ {
		s, err := c.Str()
		if err != nil {
			return nil, err
		}
		dict.Intern(s)
		if dict.Len() != i+1 {
			return nil, wire.Corruptf("duplicate dictionary string %q", s)
		}
	}
	sym := func() (string, error) {
		y, err := c.Uvarint()
		if err != nil {
			return "", err
		}
		if y >= uint64(nd) {
			return "", wire.Corruptf("dictionary id %d out of range (%d strings)", y, nd)
		}
		return dict.Str(intern.Sym(y)), nil
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
			s, err := sym()
			if err != nil {
				return nil, err
			}
			seq[j] = Activity(s)
		}
		mult, err := c.Int()
		if err != nil {
			return nil, err
		}
		nc, err := c.Count(3)
		if err != nil {
			return nil, err
		}
		cases := make([]trace.CaseID, nc)
		for j := range cases {
			if cases[j].CID, err = sym(); err != nil {
				return nil, err
			}
			if cases[j].Host, err = sym(); err != nil {
				return nil, err
			}
			rid, err := c.Varint()
			if err != nil {
				return nil, err
			}
			cases[j].RID = int(rid)
		}
		key := seq.Key()
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
