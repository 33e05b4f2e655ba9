package pm

import (
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
	// Each activity symbol's dictionary id is memoized (id+1, 0 unset),
	// so an activity string is hashed once, not once per occurrence.
	dict := intern.NewLocal()
	sym := func(s string) uint64 { return uint64(dict.Intern(s)) }
	var ids []uint64
	if l.acts != nil {
		ids = make([]uint64, l.acts.Len())
	}
	var b wire.Buf
	b.Uvarint(uint64(l.mapped))
	b.Uvarint(uint64(l.unmapped))
	b.Uvarint(uint64(len(l.variants)))
	for _, v := range l.variants {
		b.Uvarint(uint64(len(v.Syms)))
		for _, y := range v.Syms {
			if ids[y] == 0 {
				ids[y] = sym(l.acts.Str(y)) + 1
			}
			b.Uvarint(ids[y] - 1)
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
// log. Each activity dictionary id is interned once into the log's
// fresh activity table. Variants must come in strictly ascending
// canonical order, as the encoder writes them: a repeated or
// out-of-order variant is corruption. Every variant must record exactly
// one case per count, as the encoder always writes: a short list would
// be padded with zero CaseIDs by Merge and then split into the wrong
// subset by dfg.Split.
func DecodeLogSnapshot(data []byte) (*Log, error) {
	c := wire.NewCursor(data)
	dict, err := c.Dict()
	if err != nil {
		return nil, err
	}

	l := &Log{acts: intern.NewLocal()}
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
	l.variants = make([]*Variant, 0, nv)
	l.bySyms = make(map[string]*Variant, nv)
	// syms[id] is dictionary string id's activity symbol, NoActivity
	// until first use.
	syms := make([]intern.Sym, len(dict))
	for i := range syms {
		syms[i] = NoActivity
	}
	var key []byte
	for i := 0; i < nv; i++ {
		ns, err := c.Count(1)
		if err != nil {
			return nil, err
		}
		v := &Variant{Syms: make([]intern.Sym, ns)}
		for j := range v.Syms {
			id, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			if id >= uint64(len(dict)) {
				return nil, wire.Corruptf("variant %d: dictionary id %d out of range (%d strings)", i, id, len(dict))
			}
			if syms[id] == NoActivity {
				syms[id] = l.acts.Intern(dict[id])
			}
			v.Syms[j] = syms[id]
		}
		v.Seq = l.trace(v.Syms)
		if i > 0 && compareVariants(l.variants[i-1], v) >= 0 {
			return nil, wire.Corruptf("variant %d: not after variant %d in canonical order", i, i-1)
		}
		if v.Mult, err = c.Int(); err != nil {
			return nil, err
		}
		if v.Mult < 1 {
			return nil, wire.Corruptf("variant %d: multiplicity %d", i, v.Mult)
		}
		nc, err := c.Count(3)
		if err != nil {
			return nil, err
		}
		if nc != v.Mult {
			return nil, wire.Corruptf("variant %d: %d cases for multiplicity %d", i, nc, v.Mult)
		}
		v.Cases = make([]trace.CaseID, nc)
		for j := range v.Cases {
			if v.Cases[j], err = c.CaseID(dict); err != nil {
				return nil, err
			}
		}
		key = symKey(key[:0], v.Syms)
		l.bySyms[string(key)] = v
		l.variants = append(l.variants, v)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return l, nil
}
