package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/trace"
)

// Reader provides random access to the cases of an STA file, the
// counterpart of the paper's "each case is stored in a separate group
// within the HDF5 file": single cases can be loaded without materializing
// the whole event-log.
type Reader struct {
	src     io.ReaderAt
	closer  io.Closer
	entries []indexEntry
	byID    map[trace.CaseID]int
	syms    *intern.Table // nil = intern.Default

	// data, when non-nil, is a whole-file view (an mmap from Open, or
	// the caller's buffer from NewReaderBytes) that section decodes
	// slice zero-copy; otherwise sections are fetched through src with
	// pooled buffers. dict is the file-level symbol dictionary, and
	// resolved its remap into the bound symbol table, built once per
	// binding under resolveOnce (see resolve).
	data        []byte
	unmap       func() error
	dict        *intern.Local
	resolved    []string
	resolveOnce *sync.Once
	secBufs     sync.Pool
}

// SetSyms scopes subsequent case decodes to the given symbol table
// (nil restores the process-wide intern.Default). Scope a table per
// reader when decoding archives with unbounded path vocabularies in a
// long-lived process: dropping the reader and its decoded cases then
// makes every interned string collectable. Decoded events are
// identical either way. Not safe to call concurrently with decodes.
func (r *Reader) SetSyms(t *intern.Table) {
	r.syms = t
	// Invalidate the dictionary remap: the next decode rebuilds it
	// against the new table.
	r.resolved = nil
	r.resolveOnce = new(sync.Once)
}

// Open opens an STA file for random access. The file is additionally
// memory-mapped where the platform allows it, so section decodes slice
// the page cache directly instead of issuing a read per case; when
// mapping is unavailable or fails, the reader transparently uses the
// same ReadAt path as NewReader.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	if data, unmap, ok := mmapFile(f, st.Size()); ok {
		r.data, r.unmap = data, unmap
	}
	return r, nil
}

// NewReaderBytes opens an in-memory STA image. Sections decode
// zero-copy straight from data; the caller must not mutate it while the
// reader is in use.
func NewReaderBytes(data []byte) (*Reader, error) {
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	r.data = data
	return r, nil
}

// NewReader opens an STA image of the given size from any io.ReaderAt:
// it loads and verifies the footer, dictionary, and index. All counts,
// offsets, and symbol ids come from untrusted bytes and are validated
// against the regions that actually exist before any sized allocation
// or slice. A v1 image fails with ErrV1.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize {
		return nil, corrupt("file too small (%d bytes)", size)
	}
	head := make([]byte, headerSize)
	if _, err := src.ReadAt(head, 0); err != nil {
		return nil, err
	}
	// The magic is checked before the size floor: a v1 file may be
	// smaller than the current format's minimum and must still be
	// recognized as v1, not reported as truncated.
	switch string(head[:4]) {
	case magic:
	case magicV1:
		return nil, ErrV1
	default:
		return nil, corrupt("bad magic %q", head[:4])
	}
	if ver := binary.LittleEndian.Uint32(head[4:]); ver != version {
		return nil, fmt.Errorf("archive: unsupported version %d", ver)
	}
	if size < headerSize+footerSize {
		return nil, corrupt("file too small (%d bytes)", size)
	}
	foot := make([]byte, footerSize)
	if _, err := src.ReadAt(foot, size-footerSize); err != nil {
		return nil, err
	}
	if string(foot[footerSize-4:]) != footerMagic {
		return nil, corrupt("bad footer magic %q", foot[footerSize-4:])
	}
	dictOffset := binary.LittleEndian.Uint64(foot)
	indexOffset := binary.LittleEndian.Uint64(foot[8:])
	indexCRC := binary.LittleEndian.Uint32(foot[16:])
	if indexOffset > uint64(size-footerSize) {
		return nil, corrupt("index offset %d beyond file", indexOffset)
	}
	if dictOffset < headerSize || dictOffset > indexOffset {
		return nil, corrupt("dictionary region [%d,%d) out of order", dictOffset, indexOffset)
	}
	// The dictionary region is its payload plus a trailing CRC; even an
	// empty dictionary needs a count byte.
	if indexOffset-dictOffset < 5 {
		return nil, corrupt("dictionary region of %d bytes too small", indexOffset-dictOffset)
	}

	dictRegion := make([]byte, indexOffset-dictOffset)
	if _, err := src.ReadAt(dictRegion, int64(dictOffset)); err != nil {
		return nil, err
	}
	payload := dictRegion[:len(dictRegion)-4]
	if checksum(payload) != binary.LittleEndian.Uint32(dictRegion[len(dictRegion)-4:]) {
		return nil, corrupt("dictionary checksum mismatch")
	}
	dict, err := intern.DecodeDict(payload)
	if err != nil {
		return nil, corrupt("dictionary: %v", err)
	}

	idx := make([]byte, uint64(size-footerSize)-indexOffset)
	if _, err := src.ReadAt(idx, int64(indexOffset)); err != nil {
		return nil, err
	}
	if checksum(idx) != indexCRC {
		return nil, corrupt("index checksum mismatch")
	}

	ic := &cursor{b: idx}
	n, err := ic.uvarint()
	if err != nil {
		return nil, err
	}
	// Every index entry needs at least 6 bytes (six one-byte varints),
	// so a count the index bytes cannot hold is corruption, not an
	// allocation request.
	if n > uint64(ic.remaining())/6 {
		return nil, corrupt("index claims %d cases in %d bytes", n, ic.remaining())
	}
	nsyms := uint64(dict.Len())
	r := &Reader{
		src:         src,
		dict:        dict,
		resolveOnce: new(sync.Once),
		byID:        make(map[trace.CaseID]int, n),
	}
	for i := uint64(0); i < n; i++ {
		var ent indexEntry
		cidSym, err := ic.uvarint()
		if err != nil {
			return nil, err
		}
		hostSym, err := ic.uvarint()
		if err != nil {
			return nil, err
		}
		if cidSym >= nsyms || hostSym >= nsyms {
			return nil, corrupt("case %d identity symbols (%d,%d) beyond dictionary of %d", i, cidSym, hostSym, nsyms)
		}
		ent.cidSym, ent.hostSym = uint32(cidSym), uint32(hostSym)
		ent.id.CID = dict.Str(intern.Sym(cidSym))
		ent.id.Host = dict.Str(intern.Sym(hostSym))
		rid, err := ic.varint()
		if err != nil {
			return nil, err
		}
		ent.id.RID = int(rid)
		if ent.offset, err = ic.uvarint(); err != nil {
			return nil, err
		}
		if ent.length, err = ic.uvarint(); err != nil {
			return nil, err
		}
		if ent.events, err = ic.uvarint(); err != nil {
			return nil, err
		}
		// Sections live strictly between the header and the dictionary.
		// Compare without computing offset+length: hostile values near
		// MaxUint64 would wrap the sum back into range.
		if ent.offset < headerSize || ent.length > dictOffset || ent.offset > dictOffset-ent.length {
			return nil, corrupt("case %s section [%d,+%d) outside data region", ent.id, ent.offset, ent.length)
		}
		r.byID[ent.id] = len(r.entries)
		r.entries = append(r.entries, ent)
	}
	return r, nil
}

// Close releases the mapping (if any) and the underlying file when the
// reader owns one. Streams obtained from the reader must be closed (or
// fully drained) first: their Close joins the decode workers, which is
// what makes unmapping here safe.
func (r *Reader) Close() error {
	var err error
	if r.unmap != nil {
		err = r.unmap()
		r.unmap, r.data = nil, nil
	}
	if r.closer != nil {
		if cerr := r.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Cases lists the stored case identities in file order.
func (r *Reader) Cases() []trace.CaseID {
	out := make([]trace.CaseID, len(r.entries))
	for i, ent := range r.entries {
		out[i] = ent.id
	}
	return out
}

// NumCases returns the number of stored cases.
func (r *Reader) NumCases() int { return len(r.entries) }

// NumEvents returns the total number of stored events (from the index, no
// section reads).
func (r *Reader) NumEvents() int {
	n := 0
	for _, ent := range r.entries {
		n += int(ent.events)
	}
	return n
}

// ReadCase loads a single case.
func (r *Reader) ReadCase(id trace.CaseID) (*trace.Case, error) {
	i, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("archive: no case %s", id)
	}
	return r.readAt(i)
}

// ReadCaseAt loads the case at position i of the file order — O(1) in
// the archive size, since the index addresses every section directly.
func (r *Reader) ReadCaseAt(i int) (*trace.Case, error) {
	if i < 0 || i >= len(r.entries) {
		return nil, fmt.Errorf("archive: case index %d out of range [0,%d)", i, len(r.entries))
	}
	return r.readAt(i)
}

// resolve returns the dictionary remapped into the reader's current
// symbol table: resolve()[fileSym] is the canonical string. The remap
// runs once per table binding — the near-zero-parse property: after it,
// section decode touches no hash table and allocates no strings.
// Concurrent decode workers share the one remap via the Once; SetSyms
// (documented as not concurrent with decodes) installs a fresh Once.
func (r *Reader) resolve() []string {
	r.resolveOnce.Do(func() {
		cache := intern.CacheFor(r.syms)
		r.resolved = r.dict.RemapIntoTable(cache)
		intern.PutCache(cache)
	})
	return r.resolved
}

// readAt decodes the case at index position i.
func (r *Reader) readAt(i int) (*trace.Case, error) {
	ent := &r.entries[i]
	resolved := r.resolve()
	if r.data != nil {
		// Zero-copy: the section is a subslice of the mapping; decode
		// copies every value out, so nothing escapes the mmap lifetime.
		sec := r.data[ent.offset : ent.offset+ent.length]
		return decodeCase(sec, i, ent, resolved)
	}
	bp, _ := r.secBufs.Get().(*[]byte)
	if bp == nil || uint64(cap(*bp)) < ent.length {
		b := make([]byte, ent.length)
		bp = &b
	}
	sec := (*bp)[:ent.length]
	defer r.secBufs.Put(bp)
	if _, err := r.src.ReadAt(sec, int64(ent.offset)); err != nil {
		return nil, err
	}
	return decodeCase(sec, i, ent, resolved)
}

// Stream decodes the archive's case sections as a case source: sections
// are fetched and decoded by parallelism workers (0 = GOMAXPROCS) into
// an ordered window of at most window resident cases (0 = 2×workers),
// delivered in file order — which the writers lay down in CaseID order,
// so streaming consumers see the canonical event-log order without the
// log ever being materialized. The source does not own the underlying
// file; Close cancels outstanding decodes but leaves the Reader open.
func (r *Reader) Stream(parallelism, window int) source.Source {
	return r.StreamRange(0, len(r.entries), parallelism, window)
}

// StreamRange is Stream over the half-open slice [a, b) of the file's
// case order: the index addresses every section directly, so slicing
// costs nothing beyond the cases actually decoded, whatever the archive
// size. The bounds are clamped to [0, NumCases()]; an empty or inverted
// range yields an immediately-exhausted source.
func (r *Reader) StreamRange(a, b, parallelism, window int) source.Source {
	n := len(r.entries)
	if a < 0 {
		a = 0
	}
	if b > n {
		b = n
	}
	if a > b {
		a = b
	}
	return source.OrderedRange(a, b, parallelism, window, r.readAt)
}

// CaseRange selects the half-open slice [Start, End) of an archive's
// case order. End < 0 means the end of the archive.
type CaseRange struct {
	Start, End int
}

// Options configures OpenSource. The zero value streams every case,
// decoded by GOMAXPROCS workers into intern.Default.
type Options struct {
	// Parallelism bounds the concurrent section decodes
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// Window bounds the cases decoded but not yet consumed
	// (0 = 2×Parallelism).
	Window int
	// Syms scopes the decoded strings to a per-pass symbol table
	// (nil = intern.Default), so they are collectable once the pass's
	// results are dropped.
	Syms *intern.Table
	// Cases restricts the source to a slice of the file's case order
	// (nil = every case). The index addresses every section directly,
	// so the cost is proportional to the cases decoded, not the
	// archive size.
	Cases *CaseRange
}

// OpenSource opens the STA file at path as a case source configured by
// opts — the one path-level read entry point; drain the source
// (source.Drain) to materialize the event-log. The source owns the
// file: Close releases it. Unlike Reader.StreamRange (which clamps), a
// Cases range outside the archive is rejected, since this is the entry
// point user-supplied ranges reach.
func OpenSource(path string, opts Options) (source.Source, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	a, b := 0, r.NumCases()
	if rg := opts.Cases; rg != nil {
		a = rg.Start
		if rg.End >= 0 {
			b = rg.End
		}
		if a < 0 || a > b || b > r.NumCases() {
			r.Close()
			return nil, fmt.Errorf("archive: case range [%d,%d) out of bounds for %d cases", a, b, r.NumCases())
		}
	}
	r.SetSyms(opts.Syms)
	return source.WithCloser(r.StreamRange(a, b, opts.Parallelism, opts.Window), r), nil
}
