package stats

import (
	"math"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot/wire"
	"stinspector/internal/trace"
)

// Symbols returns the number of distinct activity symbols in the
// computer's table — including activities interned by co-resident
// builders sharing the SymMapper (the virtual endpoints, say). It is
// the observable StreamResult.Symbols reports, preserved exactly across
// an encode/decode round trip.
func (c *Computer) Symbols() int { return c.sm.Acts().Len() }

// EncodeSnapshot serializes the computer's pre-Finalize state for
// durable storage: the full activity symbol table in symbol order (so
// decoding reproduces the exact symbol assignment, shared-table
// residents like the virtual endpoints included), the integral
// aggregates — among them the 128-bit rate sums — and every
// max-concurrency interval. Case identities in the interval sets go
// through a per-snapshot intern dictionary like every other string.
//
// Layout (wrapped in a checksummed section by internal/snapshot):
//
//	acts:     n | string*                      (symbol i = entry i)
//	caseDict: n | string*
//	totalDur: varint
//	accs:     n | (sym events totalDur bytes hasBytes
//	               rateHi rateLo rateCount
//	               nIntervals (start end cidSym hostSym rid)*)*
//
// Only accumulators with events > 0 are written (the "events==0 ⇒
// absent" invariant), so trailing empty slots never change the bytes.
func (c *Computer) EncodeSnapshot() []byte {
	var head wire.Buf
	acts := c.sm.Acts()
	head.Uvarint(uint64(acts.Len()))
	for i := 0; i < acts.Len(); i++ {
		head.Str(acts.Str(intern.Sym(i)))
	}

	// One pass: the payload is written while the case dictionary assigns
	// ids in first-use order, and the dictionary goes in front of it at
	// the end. An activity's intervals arrive case by case, so the last
	// case's ids are kept to skip the dictionary lookups.
	caseDict := intern.NewLocal()
	var lastCase trace.CaseID
	var cy, hy intern.Sym
	haveLast := false
	var b wire.Buf
	b.Varint(int64(c.totalDur))
	nAccs := 0
	for y := range c.accs {
		if c.accs[y].events > 0 {
			nAccs++
		}
	}
	b.Uvarint(uint64(nAccs))
	for y := range c.accs {
		ac := &c.accs[y]
		if ac.events == 0 {
			continue
		}
		b.Uvarint(uint64(y))
		b.Uvarint(uint64(ac.events))
		b.Varint(int64(ac.totalDur))
		b.Varint(ac.bytes)
		b.Bool(ac.hasBytes)
		b.U64(ac.rate.hi)
		b.U64(ac.rate.lo)
		b.Uvarint(uint64(ac.rateCount))
		b.Uvarint(uint64(len(ac.intervals)))
		for _, iv := range ac.intervals {
			b.Varint(int64(iv.Start))
			b.Varint(int64(iv.End))
			if !haveLast || iv.Case != lastCase {
				lastCase, haveLast = iv.Case, true
				cy, hy = caseDict.Intern(iv.Case.CID), caseDict.Intern(iv.Case.Host)
			}
			b.Uvarint(uint64(cy))
			b.Uvarint(uint64(hy))
			b.Varint(int64(iv.Case.RID))
		}
	}
	return append(caseDict.AppendDict(head.Bytes()), b.Bytes()...)
}

// DecodeComputerSnapshot reconstructs a computer from EncodeSnapshot
// bytes over a fresh SymMapper for the given mapping. The activity
// table is re-interned in file order through the scoped-table machinery
// — a fresh local table assigns symbol i to the i-th distinct string,
// reproducing the original assignment exactly — so the decoded computer
// merges with, and finalizes identically to, the one that was encoded.
// Hostile input yields a wire.CorruptError, never a panic.
func DecodeComputerSnapshot(data []byte, m pm.Mapping) (*Computer, error) {
	c := wire.NewCursor(data)
	sm := pm.NewSymMapper(m)
	acts := sm.Acts()
	nActs, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nActs; i++ {
		s, err := c.Str()
		if err != nil {
			return nil, err
		}
		acts.Intern(s)
		if acts.Len() != i+1 {
			return nil, wire.Corruptf("duplicate activity %q", s)
		}
	}
	nCase, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	caseDict := intern.NewLocal()
	for i := 0; i < nCase; i++ {
		s, err := c.Str()
		if err != nil {
			return nil, err
		}
		caseDict.Intern(s)
		if caseDict.Len() != i+1 {
			return nil, wire.Corruptf("duplicate case string %q", s)
		}
	}
	caseSym := func() (string, error) {
		y, err := c.Uvarint()
		if err != nil {
			return "", err
		}
		if y >= uint64(nCase) {
			return "", wire.Corruptf("case dictionary id %d out of range (%d strings)", y, nCase)
		}
		return caseDict.Str(intern.Sym(y)), nil
	}

	out := &Computer{sm: sm, accs: make([]accum, nActs)}
	td, err := c.Varint()
	if err != nil {
		return nil, err
	}
	out.totalDur = time.Duration(td)
	nAccs, err := c.Count(8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nAccs; i++ {
		y, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if y >= uint64(nActs) {
			return nil, wire.Corruptf("activity symbol %d out of range (%d activities)", y, nActs)
		}
		ac := &out.accs[y]
		if ac.events != 0 {
			return nil, wire.Corruptf("duplicate accumulator for symbol %d", y)
		}
		if ac.events, err = c.Int(); err != nil {
			return nil, err
		}
		if ac.events == 0 {
			// Empty accumulators are never written; an explicit one
			// would break the events==0 ⇒ absent invariant downstream.
			return nil, wire.Corruptf("empty accumulator for symbol %d", y)
		}
		d, err := c.Varint()
		if err != nil {
			return nil, err
		}
		ac.totalDur = time.Duration(d)
		if ac.bytes, err = c.Varint(); err != nil {
			return nil, err
		}
		if ac.hasBytes, err = c.Bool(); err != nil {
			return nil, err
		}
		if ac.rate.hi, err = c.U64(); err != nil {
			return nil, err
		}
		if ac.rate.lo, err = c.U64(); err != nil {
			return nil, err
		}
		rc, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if rc > math.MaxInt64 {
			return nil, wire.Corruptf("rate count %d overflows int64", rc)
		}
		ac.rateCount = int64(rc)
		ni, err := c.Count(5)
		if err != nil {
			return nil, err
		}
		ac.intervals = make([]trace.Interval, ni)
		for j := range ac.intervals {
			iv := &ac.intervals[j]
			s, err := c.Varint()
			if err != nil {
				return nil, err
			}
			iv.Start = time.Duration(s)
			e, err := c.Varint()
			if err != nil {
				return nil, err
			}
			iv.End = time.Duration(e)
			if iv.Case.CID, err = caseSym(); err != nil {
				return nil, err
			}
			if iv.Case.Host, err = caseSym(); err != nil {
				return nil, err
			}
			rid, err := c.Varint()
			if err != nil {
				return nil, err
			}
			iv.Case.RID = int(rid)
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
