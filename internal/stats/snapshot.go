package stats

import (
	"math"
	"slices"
	"strings"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/wire"
)

// Symbols returns the number of distinct activity symbols in the
// computer's table — including activities interned by co-resident
// builders sharing the SymMapper (the virtual endpoints, say). It is
// the observable StreamResult.Symbols reports, preserved exactly across
// an encode/decode round trip.
func (c *Computer) Symbols() int { return c.sm.Acts().Len() }

// EncodeSnapshot serializes the computer's pre-Finalize state for
// durable storage: the full activity symbol table (shared-table
// residents like the virtual endpoints included, so Symbols survives),
// the integral aggregates — among them the 128-bit rate sums — and
// every activity's max-concurrency spans in (start, end) order.
//
// Layout (wrapped in a checksummed section by internal/snapshot):
//
//	acts:     n | string*                     (strictly ascending)
//	totalDur: varint
//	accs:     n | (act events totalDur bytes hasBytes
//	               rateHi rateLo rateCount
//	               nSpans [start0 dur0 (startDelta dur)*])*
//
// act indexes acts and ascends strictly. start0 is a varint; each later
// startDelta is a uvarint distance from the previous span's start, and
// each dur (end - start) a uvarint. Activities go in string order and
// spans in (start, end) order, so the bytes are a function of the
// folded state alone: the arrival order of the cases, the shard count
// and the symbol assignment never show. Only accumulators with
// events > 0 are written (the "events==0 ⇒ absent" invariant), so
// trailing empty slots never change the bytes either.
func (c *Computer) EncodeSnapshot() []byte {
	acts := c.sm.Acts()
	order := make([]intern.Sym, acts.Len())
	for i := range order {
		order[i] = intern.Sym(i)
	}
	slices.SortFunc(order, func(a, b intern.Sym) int {
		return strings.Compare(acts.Str(a), acts.Str(b))
	})

	strs := make([]string, len(order))
	for i, y := range order {
		strs[i] = acts.Str(y)
	}
	var b wire.Buf
	b.Dict(strs)
	b.Varint(int64(c.totalDur))
	nAccs := 0
	for y := range c.accs {
		if c.accs[y].events > 0 {
			nAccs++
		}
	}
	b.Uvarint(uint64(nAccs))
	for i, y := range order {
		if int(y) >= len(c.accs) || c.accs[y].events == 0 {
			continue
		}
		ac := &c.accs[y]
		b.Uvarint(uint64(i))
		b.Uvarint(uint64(ac.events))
		b.Varint(int64(ac.totalDur))
		b.Varint(ac.bytes)
		b.Bool(ac.hasBytes)
		b.U64(ac.rate.hi)
		b.U64(ac.rate.lo)
		b.Uvarint(uint64(ac.rateCount))
		spans := ac.sortedSpans()
		b.Uvarint(uint64(len(spans)))
		for k, sp := range spans {
			// Differences are taken in uint64 arithmetic: sorted spans
			// make them non-negative, and the true value always fits.
			if k == 0 {
				b.Varint(int64(sp.start))
			} else {
				b.Uvarint(uint64(sp.start) - uint64(spans[k-1].start))
			}
			b.Uvarint(uint64(sp.end) - uint64(sp.start))
		}
	}
	return b.Bytes()
}

// addOffset returns base+d, and false when the sum overflows int64.
func addOffset(base time.Duration, d uint64) (time.Duration, bool) {
	if d > uint64(math.MaxInt64)-uint64(base) {
		return 0, false
	}
	return time.Duration(uint64(base) + d), true
}

// DecodeComputerSnapshot reconstructs a computer from EncodeSnapshot
// bytes over a fresh SymMapper for the given mapping. The activity
// table is re-interned in file order, so the decoded computer's symbols
// follow string order; symbols are internal to the computer, so it
// merges with, finalizes and re-encodes identically to the one that
// was encoded. The decoded computer is sorted (see Sort). Hostile input
// — activities or spans out of order, an offset that overflows —
// yields a wire.CorruptError, never a panic.
func DecodeComputerSnapshot(data []byte, m pm.Mapping) (*Computer, error) {
	c := wire.NewCursor(data)
	sm := pm.NewSymMapper(m)
	acts := sm.Acts()
	strs, err := c.Dict()
	if err != nil {
		return nil, err
	}
	for i, s := range strs {
		if i > 0 && s <= strs[i-1] {
			return nil, wire.Corruptf("activity %q out of string order", s)
		}
		acts.Intern(s)
	}
	nActs := len(strs)

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
	next := uint64(0) // the smallest activity index the next accumulator may use
	for i := 0; i < nAccs; i++ {
		y, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if y >= uint64(nActs) {
			return nil, wire.Corruptf("activity symbol %d out of range (%d activities)", y, nActs)
		}
		if y < next {
			return nil, wire.Corruptf("accumulator for activity %d out of order", y)
		}
		next = y + 1
		ac := &out.accs[y]
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
		if ac.spans, err = decodeSpans(c); err != nil {
			return nil, err
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeSpans reads one activity's span list and checks the sorted
// invariant: starts never descend (a delta overflowing int64 is how a
// descending start would have to be written), equal starts have
// ascending ends, and no end overflows.
func decodeSpans(c *wire.Cursor) ([]span, error) {
	n, err := c.Count(2)
	if err != nil {
		return nil, err
	}
	spans := make([]span, n)
	for k := range spans {
		var start time.Duration
		if k == 0 {
			s, err := c.Varint()
			if err != nil {
				return nil, err
			}
			start = time.Duration(s)
		} else {
			d, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			var ok bool
			if start, ok = addOffset(spans[k-1].start, d); !ok {
				return nil, wire.Corruptf("span %d: start delta %d overflows", k, d)
			}
		}
		d, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		end, ok := addOffset(start, d)
		if !ok {
			return nil, wire.Corruptf("span %d: duration %d overflows the end", k, d)
		}
		spans[k] = span{start: start, end: end}
		if k > 0 && cmpSpan(spans[k], spans[k-1]) < 0 {
			return nil, wire.Corruptf("span %d out of (start, end) order", k)
		}
	}
	return spans, nil
}
