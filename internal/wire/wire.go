// Package wire is the binary codec of both on-disk formats, the STS
// snapshot (internal/snapshot and the sections the aggregates encode)
// and the STA archive (internal/archive): a small append-only encoder,
// a bounds-checked decoder, the CRC-32 checksum, the string dictionary
// and the case identity. It is a leaf below the aggregate packages (pm,
// dfg, stats, behavior), so they serialize themselves without importing
// either container.
//
// Both formats store strings the same way, as a dictionary
//
//	uvarint n | (uvarint len | bytes)*
//
// in which string i has id i. Values refer to strings by id, and a case
// identity is the triple (cidSym, hostSym, rid) of two ids and a varint.
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

	"stinspector/internal/trace"
)

// CorruptError reports an integrity failure of a snapshot or an
// archive: truncation, checksum mismatch, an out-of-range dictionary
// id, or a structurally impossible count. The readers of both files
// wrap it with the file's path.
type CorruptError struct {
	Detail string
}

func (e *CorruptError) Error() string { return "corrupt: " + e.Detail }

// Corruptf builds a CorruptError.
func Corruptf(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}

// Checksum is the CRC-32 (IEEE) used throughout both formats.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Buf is a small append-only encoder.
type Buf struct {
	b []byte
}

// Bytes returns the encoded bytes.
func (w *Buf) Bytes() []byte { return w.b }

// Len returns the number of bytes encoded so far.
func (w *Buf) Len() int { return len(w.b) }

// Reset empties the buffer and keeps its capacity, for scratch reused
// across encodings.
func (w *Buf) Reset() { w.b = w.b[:0] }

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

// str writes a length-prefixed string; only Dict writes strings.
func (w *Buf) str(s string) {
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

// Dict writes strs as a string dictionary: string i gets id i. The
// output is a function of strs alone, so an encoder that assigns ids in
// a deterministic order writes reproducible bytes.
func (w *Buf) Dict(strs []string) {
	w.Uvarint(uint64(len(strs)))
	for _, s := range strs {
		w.str(s)
	}
}

// CaseID writes a case identity as the triple (cidSym, hostSym, rid),
// where sym returns a string's dictionary id.
func (w *Buf) CaseID(id trace.CaseID, sym func(string) uint64) {
	w.Uvarint(sym(id.CID))
	w.Uvarint(sym(id.Host))
	w.Varint(int64(id.RID))
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

// str reads a length-prefixed string, copied out of the input; only
// Dict reads strings.
func (c *Cursor) str() (string, error) {
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

// Dict reads a string dictionary written by Buf.Dict. A count the
// remaining bytes cannot hold, a length past the end of the input and a
// duplicate string (which no encoder writes, since ids name distinct
// strings) are corruption. The strings are copied out of the input, so
// the caller may reuse or unmap it afterwards.
func (c *Cursor) Dict() ([]string, error) {
	// Every string costs at least its one-byte length.
	n, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	strs := make([]string, n)
	seen := make(map[string]struct{}, n)
	for i := range strs {
		s, err := c.str()
		if err != nil {
			return nil, err
		}
		if _, dup := seen[s]; dup {
			return nil, Corruptf("duplicate dictionary string %q", s)
		}
		seen[s] = struct{}{}
		strs[i] = s
	}
	return strs, nil
}

// Ref reads a dictionary id and returns the string it names in dict.
func (c *Cursor) Ref(dict []string) (string, error) {
	y, err := c.Uvarint()
	if err != nil {
		return "", err
	}
	if y >= uint64(len(dict)) {
		return "", Corruptf("dictionary id %d out of range (%d strings) at offset %d", y, len(dict), c.off)
	}
	return dict[y], nil
}

// CaseID reads a case identity written by Buf.CaseID against dict.
func (c *Cursor) CaseID(dict []string) (trace.CaseID, error) {
	var id trace.CaseID
	var err error
	if id.CID, err = c.Ref(dict); err != nil {
		return id, err
	}
	if id.Host, err = c.Ref(dict); err != nil {
		return id, err
	}
	rid, err := c.Varint()
	id.RID = int(rid)
	return id, err
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
