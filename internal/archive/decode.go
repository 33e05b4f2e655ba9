package archive

import (
	"encoding/binary"
	"math"
	"time"

	"stinspector/internal/trace"
)

// colCursor is the hot-path varint decoder for column blocks. Unlike
// cursor it does not return an error per value: column byte ranges are
// pre-sliced from the section header, so a malformed varint can only
// arise inside one column, and the per-column done() check after the
// loop catches it. The single-byte fast path covers the common small
// values (symbols, short durations) without the binary.Uvarint call.
type colCursor struct {
	b   []byte
	off int
	bad bool
}

func (c *colCursor) uvarint() uint64 {
	b, i := c.b, c.off
	if i < len(b) {
		if b0 := b[i]; b0 < 0x80 {
			c.off = i + 1
			return uint64(b0)
		}
	}
	return c.uvarintSlow()
}

// uvarintSlow decodes the multi-byte encodings, unrolled for the 2–4
// byte lengths that dominate real columns (timestamps in nanoseconds,
// transfer sizes): binary.Uvarint's generic loop would re-read byte 0
// and pay its bounds check per byte.
func (c *colCursor) uvarintSlow() uint64 {
	b, i := c.b, c.off
	if i+1 < len(b) {
		b0 := uint64(b[i] & 0x7f)
		if b1 := b[i+1]; b1 < 0x80 {
			c.off = i + 2
			return b0 | uint64(b1)<<7
		} else if i+2 < len(b) {
			b1 := uint64(b1 & 0x7f)
			if b2 := b[i+2]; b2 < 0x80 {
				c.off = i + 3
				return b0 | b1<<7 | uint64(b2)<<14
			} else if i+3 < len(b) {
				if b3 := b[i+3]; b3 < 0x80 {
					c.off = i + 4
					return b0 | b1<<7 | uint64(b2&0x7f)<<14 | uint64(b3)<<21
				}
			}
		}
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off = i + n
	return v
}

func (c *colCursor) varint() int64 {
	ux := c.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// done reports whether the column decoded cleanly and consumed exactly
// its bytes: one check per column instead of an error per value.
func (c *colCursor) done() bool { return !c.bad && c.off == len(c.b) }

// decodeCase parses and verifies one columnar section. resolved is
// the dictionary remap from resolve(); every string in the result is a
// canonical table string, and no hashing, sorting, or event copying
// happens here: the delta-encoded start column proves Equation (2)
// order, so the events are assembled once, in place.
func decodeCase(sec []byte, ordinal int, ent *indexEntry, resolved []string) (*trace.Case, error) {
	if len(sec) < 4 {
		return nil, corrupt("case %s: section of %d bytes too small", ent.id, len(sec))
	}
	body := sec[:len(sec)-4]
	if checksum(body) != binary.LittleEndian.Uint32(sec[len(sec)-4:]) {
		return nil, corrupt("case %s: section checksum mismatch", ent.id)
	}

	c := &cursor{b: body}
	ord, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// The ordinal binds section to index slot, catching an index whose
	// offsets point at the wrong (but individually valid) sections.
	if ord != uint64(ordinal) {
		return nil, corrupt("section holds case %d, index says %d (%s)", ord, ordinal, ent.id)
	}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n != ent.events {
		return nil, corrupt("case %s: section holds %d events, index says %d", ent.id, n, ent.events)
	}
	var colLen [6]uint64
	for j := range colLen {
		if colLen[j], err = c.uvarint(); err != nil {
			return nil, err
		}
	}
	var cols [6][]byte
	for j, cl := range colLen {
		if cl > uint64(c.remaining()) {
			return nil, corrupt("case %s: column %d of %d bytes exceeds section", ent.id, j, cl)
		}
		cols[j] = body[c.off : c.off+int(cl) : c.off+int(cl)]
		c.off += int(cl)
		// Each event contributes at least one byte to every column, so a
		// count a column cannot hold is corruption, not an allocation
		// request.
		if n > cl {
			return nil, corrupt("case %s: %d events claimed in %d-byte column %d", ent.id, n, cl, j)
		}
	}
	if c.remaining() != 0 {
		return nil, corrupt("case %s: %d trailing bytes after columns", ent.id, c.remaining())
	}

	id := trace.CaseID{
		CID:  resolved[ent.cidSym],
		Host: resolved[ent.hostSym],
		RID:  ent.id.RID,
	}
	// nil for an empty case, exactly as NewCase builds — decoded cases
	// must be indistinguishable from in-memory ones.
	var events []trace.Event
	if n > 0 {
		events = make([]trace.Event, n)
	}

	pc := colCursor{b: cols[0]}
	for i := range events {
		events[i].PID = int(pc.varint())
		events[i].CID = id.CID
		events[i].Host = id.Host
		events[i].RID = id.RID
	}
	if !pc.done() {
		return nil, corrupt("case %s: malformed pid column", id)
	}

	nres := uint64(len(resolved))
	cc := colCursor{b: cols[1]}
	for i := range events {
		s := cc.uvarint()
		if s >= nres {
			return nil, corrupt("case %s: call symbol %d beyond dictionary of %d", id, s, nres)
		}
		events[i].Call = resolved[s]
	}
	if !cc.done() {
		return nil, corrupt("case %s: malformed call column", id)
	}

	sc := colCursor{b: cols[2]}
	prev := int64(0)
	for i := range events {
		if i == 0 {
			prev = sc.varint()
		} else {
			d := sc.uvarint()
			// Deltas are non-negative; a sum past MaxInt64 would wrap
			// into a garbage (negative) timestamp instead of failing.
			if d > math.MaxInt64 || prev > math.MaxInt64-int64(d) {
				return nil, corrupt("case %s: start timestamp overflows at event %d", id, i)
			}
			prev += int64(d)
		}
		events[i].Start = time.Duration(prev)
	}
	if !sc.done() {
		return nil, corrupt("case %s: malformed start column", id)
	}

	dc := colCursor{b: cols[3]}
	for i := range events {
		events[i].Dur = time.Duration(dc.uvarint())
	}
	if !dc.done() {
		return nil, corrupt("case %s: malformed dur column", id)
	}

	fc := colCursor{b: cols[4]}
	for i := range events {
		s := fc.uvarint()
		if s >= nres {
			return nil, corrupt("case %s: fp symbol %d beyond dictionary of %d", id, s, nres)
		}
		events[i].FP = resolved[s]
	}
	if !fc.done() {
		return nil, corrupt("case %s: malformed fp column", id)
	}

	zc := colCursor{b: cols[5]}
	for i := range events {
		events[i].Size = zc.varint()
	}
	if !zc.done() {
		return nil, corrupt("case %s: malformed size column", id)
	}

	// The start column's non-negative deltas prove the events are already
	// in Equation (2) order and they were stamped above, so NewCase's
	// copy and stable sort would be pure overhead.
	return &trace.Case{ID: id, Events: events}, nil
}
