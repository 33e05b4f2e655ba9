// Package wire provides the binary building blocks of the snapshot
// format: a small append-only encoder, a bounds-checked decoder, and
// the CRC-32 checksum — the same primitives the STA archive format uses
// (internal/archive/format.go), factored into a leaf package so the
// aggregate packages (pm, dfg, stats) can serialize themselves without
// importing the archive layer.
//
// The decoder is written for hostile input: every primitive read is
// bounds-checked, and Count guards length-prefixed collections against
// allocation bombs by capping the claimed element count at what the
// remaining bytes could possibly encode. Decoders built on it fail with
// a CorruptError; they never panic and never allocate proportionally to
// an attacker-chosen count.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// CorruptError reports a snapshot integrity failure: truncation,
// checksum mismatch, an out-of-range dictionary id, or a structurally
// impossible count.
type CorruptError struct {
	Detail string
}

func (e *CorruptError) Error() string { return "snapshot: corrupt: " + e.Detail }

// Corruptf builds a CorruptError.
func Corruptf(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}

// Checksum is the CRC-32 (IEEE) used throughout the snapshot format,
// matching the archive format's choice.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Buf is a small append-only encoder.
type Buf struct {
	b []byte
}

// Bytes returns the encoded bytes.
func (w *Buf) Bytes() []byte { return w.b }

// Len returns the number of bytes encoded so far.
func (w *Buf) Len() int { return len(w.b) }

// Grow makes room for at least n more bytes, so an encoder that knows
// its output size writes it without reallocating.
func (w *Buf) Grow(n int) { w.b = slices.Grow(w.b, n) }

// reserve makes room for n more bytes, at least doubling the capacity
// when it runs out: append alone grows a large slice by a quarter at a
// time, so a multi-megabyte encoding would allocate about five times
// its size along the way.
func (w *Buf) reserve(n int) {
	if cap(w.b)-len(w.b) < n {
		w.Grow(max(n, len(w.b)))
	}
}

func (w *Buf) Uvarint(v uint64) {
	w.reserve(binary.MaxVarintLen64)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *Buf) Varint(v int64) {
	w.reserve(binary.MaxVarintLen64)
	w.b = binary.AppendVarint(w.b, v)
}

func (w *Buf) Raw(p []byte) {
	w.reserve(len(p))
	w.b = append(w.b, p...)
}

func (w *Buf) U32(v uint32) {
	w.reserve(4)
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *Buf) U64(v uint64) {
	w.reserve(8)
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *Buf) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.reserve(len(s))
	w.b = append(w.b, s...)
}

func (w *Buf) Bool(v bool) {
	w.reserve(1)
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Cursor is the matching bounds-checked decoder.
type Cursor struct {
	b   []byte
	off int
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// Offset returns the current read position, for error messages.
func (c *Cursor) Offset() int { return c.off }

func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, Corruptf("bad uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, Corruptf("bad varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *Cursor) U32() (uint32, error) {
	if c.Remaining() < 4 {
		return 0, Corruptf("truncated u32 at offset %d", c.off)
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *Cursor) U64() (uint64, error) {
	if c.Remaining() < 8 {
		return 0, Corruptf("truncated u64 at offset %d", c.off)
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

func (c *Cursor) Bool() (bool, error) {
	if c.Remaining() < 1 {
		return false, Corruptf("truncated bool at offset %d", c.off)
	}
	v := c.b[c.off]
	c.off++
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, Corruptf("bad bool byte %d at offset %d", v, c.off-1)
	}
}

func (c *Cursor) Str() (string, error) {
	n, err := c.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(c.Remaining()) {
		return "", Corruptf("string of %d bytes exceeds input at offset %d", n, c.off)
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// Count reads a collection length and validates it against the bytes
// actually left: each element of the collection needs at least perItem
// encoded bytes (clamped to 1), so a count the remaining input cannot
// possibly hold is corruption, not an allocation request. This is the
// guard that keeps hostile counts from turning into multi-GB makes.
func (c *Cursor) Count(perItem int) (int, error) {
	if perItem < 1 {
		perItem = 1
	}
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.Remaining())/uint64(perItem) {
		return 0, Corruptf("count %d impossible in %d remaining bytes at offset %d", v, c.Remaining(), c.off)
	}
	return int(v), nil
}

// Int reads a uvarint that must fit a non-negative int (a counter, a
// multiplicity): values beyond the platform int range are corruption.
func (c *Cursor) Int() (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 || int64(v) > int64(maxInt) {
		return 0, Corruptf("counter %d overflows int at offset %d", v, c.off)
	}
	return int(v), nil
}

const maxInt = int(^uint(0) >> 1)

// Done reports an error when unread bytes remain — decoders call it at
// the end so trailing junk is detected rather than silently ignored.
func (c *Cursor) Done() error {
	if c.Remaining() != 0 {
		return Corruptf("%d trailing bytes at offset %d", c.Remaining(), c.off)
	}
	return nil
}
