package behavior

import (
	"encoding/binary"

	"stinspector/internal/intern"
	"stinspector/internal/wire"
)

// EncodeSnapshot serializes the profile for durable storage. Every
// string — subjects and the case-identity CID/Host components — is
// written once in a per-snapshot intern dictionary, in first-use order
// over the canonical iteration (cases ascending, operations in
// declaration order, subjects in ascending string order), so the
// encoding is a pure function of the profile's content: identical
// profiles encode to identical bytes whatever fold shape produced them.
//
// Layout (wrapped in a checksummed section by internal/snapshot):
//
//	dict:  n | string*
//	cases: n | (cidSym hostSym rid events (nEntries | (subjSym count)*)^numOps)*
//
// Each case's run is already in this order, so encoding walks the runs
// and only reads the profile.
func (p *Profile) EncodeSnapshot() []byte {
	ids := p.sortedIDs()
	// One pass: the payload is written while the dictionary assigns ids
	// in first-use order, and the dictionary is prepended at the end.
	// Subjects are the profile's own symbols, so their ids live in a
	// slice indexed by symbol (id+1; 0 = not assigned yet) and no subject
	// string is hashed. A CID or Host string that is also a subject
	// shares the subject's id; the others get theirs from a small map.
	strs := make([]string, 0, p.syms.Len()+2*len(ids))
	subjID := make([]intern.Sym, p.syms.Len())
	subject := func(y intern.Sym) uint64 {
		if subjID[y] == 0 {
			strs = append(strs, p.syms.Str(y))
			subjID[y] = intern.Sym(len(strs))
		}
		return uint64(subjID[y] - 1)
	}
	other := make(map[string]uint64)
	str := func(s string) uint64 {
		if y, ok := p.syms.Sym(s); ok {
			return subject(y)
		}
		id, ok := other[s]
		if !ok {
			id = uint64(len(strs))
			strs = append(strs, s)
			other[s] = id
		}
		return id
	}

	var b wire.Buf
	b.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		acc := p.cases[id]
		b.CaseID(id, str)
		b.Uvarint(uint64(acc.events))
		for op := opClass(0); op < numOps; op++ {
			seg := opSegment(acc.run, op)
			b.Uvarint(uint64(len(seg)))
			for _, e := range seg {
				b.Uvarint(subject(e.sym))
				b.Uvarint(uint64(e.count))
			}
		}
	}
	size := binary.MaxVarintLen64 + b.Len()
	for _, s := range strs {
		size += binary.MaxVarintLen64 + len(s)
	}
	var d wire.Buf
	d.Grow(size)
	d.Dict(strs)
	d.Raw(b.Bytes())
	return d.Bytes()
}

// DecodeSnapshot reconstructs a profile from EncodeSnapshot bytes. The
// subjects are interned through the profile's fresh scoped table, and
// every reference is range-checked against the dictionary: hostile input
// yields a wire.CorruptError, never a panic or a garbage profile.
func DecodeSnapshot(data []byte) (*Profile, error) {
	c := wire.NewCursor(data)
	dict, err := c.Dict()
	if err != nil {
		return nil, err
	}

	p := New()
	// Each case needs at least cid+host+rid+events+numOps list lengths.
	nc, err := c.Count(4 + int(numOps))
	if err != nil {
		return nil, err
	}
	for i := 0; i < nc; i++ {
		id, err := c.CaseID(dict)
		if err != nil {
			return nil, err
		}
		events, err := c.Int()
		if err != nil {
			return nil, err
		}
		var run []entry
		for op := opClass(0); op < numOps; op++ {
			ne, err := c.Count(2)
			if err != nil {
				return nil, err
			}
			prev := ""
			for j := 0; j < ne; j++ {
				s, err := c.Ref(dict)
				if err != nil {
					return nil, err
				}
				if j > 0 && s <= prev {
					return nil, wire.Corruptf("behavior %s subject %q does not sort after %q", op, s, prev)
				}
				prev = s
				n, err := c.Int()
				if err != nil {
					return nil, err
				}
				if n <= 0 {
					return nil, wire.Corruptf("behavior count %d for %q must be positive", n, s)
				}
				run = append(run, entry{sym: p.syms.Intern(s), op: op, count: n})
			}
		}
		// A well-formed snapshot never repeats a CaseID; fold a repeat
		// the way Merge would rather than dropping data.
		p.addRun(id, run, events)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return p, nil
}
