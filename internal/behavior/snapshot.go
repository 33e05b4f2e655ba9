package behavior

import (
	"encoding/binary"

	"stinspector/internal/intern"
	"stinspector/internal/snapshot/wire"
	"stinspector/internal/trace"
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
// EncodeSnapshot caches each case's subject order on the profile, so
// like Add and Merge it must not run concurrently with other use of it.
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
		b.Uvarint(str(id.CID))
		b.Uvarint(str(id.Host))
		b.Varint(int64(id.RID))
		b.Uvarint(uint64(acc.events))
		for op := Op(0); op < numOps; op++ {
			order := acc.subjectOrder(op, p.syms)
			b.Uvarint(uint64(len(order)))
			for _, y := range order {
				b.Uvarint(subject(y))
				b.Uvarint(uint64(acc.ops[op][y]))
			}
		}
	}
	size := binary.MaxVarintLen64 + b.Len()
	for _, s := range strs {
		size += binary.MaxVarintLen64 + len(s)
	}
	var d wire.Buf
	d.Grow(size)
	d.Uvarint(uint64(len(strs)))
	for _, s := range strs {
		d.Str(s)
	}
	d.Raw(b.Bytes())
	return d.Bytes()
}

// DecodeSnapshot reconstructs a profile from EncodeSnapshot bytes. The
// dictionary strings are re-interned through the profile's fresh scoped
// table in file order, and every reference is range-checked: hostile
// input yields a wire.CorruptError, never a panic or a garbage profile.
func DecodeSnapshot(data []byte) (*Profile, error) {
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
			return nil, wire.Corruptf("duplicate behavior-dictionary string %q", s)
		}
	}
	sym := func() (string, error) {
		y, err := c.Uvarint()
		if err != nil {
			return "", err
		}
		if y >= uint64(nd) {
			return "", wire.Corruptf("behavior dictionary id %d out of range (%d strings)", y, nd)
		}
		return dict.Str(intern.Sym(y)), nil
	}

	p := New()
	// Each case needs at least cid+host+rid+events+numOps list lengths.
	nc, err := c.Count(4 + int(numOps))
	if err != nil {
		return nil, err
	}
	for i := 0; i < nc; i++ {
		var id trace.CaseID
		if id.CID, err = sym(); err != nil {
			return nil, err
		}
		if id.Host, err = sym(); err != nil {
			return nil, err
		}
		rid, err := c.Varint()
		if err != nil {
			return nil, err
		}
		id.RID = int(rid)
		events, err := c.Int()
		if err != nil {
			return nil, err
		}
		acc := p.cases[id]
		if acc == nil {
			acc = &caseAcc{}
			p.cases[id] = acc
		}
		// A well-formed snapshot never repeats a CaseID; fold
		// duplicates the way Merge would rather than dropping data.
		acc.events += events
		for op := Op(0); op < numOps; op++ {
			ne, err := c.Count(2)
			if err != nil {
				return nil, err
			}
			if ne == 0 {
				continue
			}
			m := acc.ops[op]
			if m == nil {
				m = make(map[intern.Sym]int, ne)
				acc.ops[op] = m
			}
			for j := 0; j < ne; j++ {
				s, err := sym()
				if err != nil {
					return nil, err
				}
				n, err := c.Int()
				if err != nil {
					return nil, err
				}
				if n <= 0 {
					return nil, wire.Corruptf("behavior count %d for %q must be positive", n, s)
				}
				m[p.syms.Intern(s)] += n
			}
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return p, nil
}
