package archive

import (
	"fmt"
	"io"
	"os"
	"sync"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
)

// Reader provides random access to the cases of an STA file, the
// counterpart of the paper's "each case is stored in a separate group
// within the HDF5 file": single cases can be loaded without materializing
// the whole event-log.
type Reader struct {
	src     io.ReaderAt
	closer  io.Closer
	entries []indexEntry

	// data, when non-nil, is a whole-file view (an mmap from Open, or
	// an in-memory image) that section decodes slice zero-copy;
	// otherwise sections are fetched through src with pooled buffers.
	// dict is the file-level string dictionary, each string the
	// process-wide string table's canonical copy (see resolve).
	data    []byte
	unmap   func() error
	dict    []string
	secBufs sync.Pool
}

// Open opens an STA file for random access. The file is additionally
// memory-mapped where the platform allows it, so section decodes slice
// the page cache directly instead of issuing a read per case; when
// mapping is unavailable or fails, the reader transparently uses the
// same ReadAt path as newReader.
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
	r, err := newReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archive %s: %w", path, err)
	}
	r.closer = f
	if data, unmap, ok := mmapFile(f, st.Size()); ok {
		r.data, r.unmap = data, unmap
	}
	return r, nil
}

// newReader opens an STA image of the given size from any io.ReaderAt:
// it loads and verifies the footer, dictionary, and index. All counts,
// offsets, and symbol ids come from untrusted bytes and are validated
// against the regions that actually exist before any sized allocation
// or slice. A v1 image fails with errV1.
func newReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize {
		return nil, wire.Corruptf("file too small (%d bytes)", size)
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
		return nil, errV1
	default:
		return nil, wire.Corruptf("bad magic %q", head[:4])
	}
	// head holds headerSize bytes, so the version read cannot fail.
	if ver, _ := wire.NewCursor(head[4:]).U32(); ver != version {
		return nil, fmt.Errorf("unsupported STA version %d", ver)
	}
	if size < headerSize+footerSize {
		return nil, wire.Corruptf("file too small (%d bytes)", size)
	}
	foot := make([]byte, footerSize)
	if _, err := src.ReadAt(foot, size-footerSize); err != nil {
		return nil, err
	}
	if string(foot[footerSize-4:]) != footerMagic {
		return nil, wire.Corruptf("bad footer magic %q", foot[footerSize-4:])
	}
	// foot holds footerSize bytes, so these reads cannot fail.
	fc := wire.NewCursor(foot)
	dictOffset, _ := fc.U64()
	indexOffset, _ := fc.U64()
	indexCRC, _ := fc.U32()
	if indexOffset > uint64(size-footerSize) {
		return nil, wire.Corruptf("index offset %d beyond file", indexOffset)
	}
	if dictOffset < headerSize || dictOffset > indexOffset {
		return nil, wire.Corruptf("dictionary region [%d,%d) out of order", dictOffset, indexOffset)
	}
	// The dictionary region is its payload plus a trailing CRC; even an
	// empty dictionary needs a count byte.
	if indexOffset-dictOffset < 5 {
		return nil, wire.Corruptf("dictionary region of %d bytes too small", indexOffset-dictOffset)
	}

	dictRegion := make([]byte, indexOffset-dictOffset)
	if _, err := src.ReadAt(dictRegion, int64(dictOffset)); err != nil {
		return nil, err
	}
	payload := dictRegion[:len(dictRegion)-4]
	crc, _ := wire.NewCursor(dictRegion[len(payload):]).U32() // 4 bytes, checked above
	if wire.Checksum(payload) != crc {
		return nil, wire.Corruptf("dictionary checksum mismatch")
	}
	dc := wire.NewCursor(payload)
	dict, err := dc.Dict()
	if err != nil {
		return nil, err
	}
	if err := dc.Done(); err != nil {
		return nil, err
	}

	idx := make([]byte, uint64(size-footerSize)-indexOffset)
	if _, err := src.ReadAt(idx, int64(indexOffset)); err != nil {
		return nil, err
	}
	if wire.Checksum(idx) != indexCRC {
		return nil, wire.Corruptf("index checksum mismatch")
	}
	resolve(dict)

	ic := wire.NewCursor(idx)
	// Every index entry needs at least 6 bytes (six one-byte varints).
	n, err := ic.Count(6)
	if err != nil {
		return nil, err
	}
	r := &Reader{src: src, dict: dict}
	for i := 0; i < n; i++ {
		var ent indexEntry
		if ent.id, err = ic.CaseID(dict); err != nil {
			return nil, err
		}
		if ent.offset, err = ic.Uvarint(); err != nil {
			return nil, err
		}
		if ent.length, err = ic.Uvarint(); err != nil {
			return nil, err
		}
		if ent.events, err = ic.Uvarint(); err != nil {
			return nil, err
		}
		// Sections live strictly between the header and the dictionary.
		// Compare without computing offset+length: hostile values near
		// MaxUint64 would wrap the sum back into range.
		if ent.offset < headerSize || ent.length > dictOffset || ent.offset > dictOffset-ent.length {
			return nil, wire.Corruptf("case %s section [%d,+%d) outside data region", ent.id, ent.offset, ent.length)
		}
		// Stream promises CaseID order, and a case stored twice would be
		// folded twice: the writers lay the index down strictly
		// ascending, so anything else is corruption.
		if k := len(r.entries); k > 0 && !r.entries[k-1].id.Less(ent.id) {
			return nil, wire.Corruptf("case %s follows %s in the index: not in ascending CaseID order", ent.id, r.entries[k-1].id)
		}
		r.entries = append(r.entries, ent)
	}
	if err := ic.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// resolve replaces every dictionary string with the process-wide string
// table's canonical copy — the near-zero-parse property: with the
// index's identities and the call and fp columns all ids into the
// dictionary, section decode afterwards touches no hash table and
// allocates no strings, and every decoded string is a canonical one.
func resolve(dict []string) {
	cache := intern.CacheFor(nil)
	for i, s := range dict {
		dict[i] = cache.Canon(s)
	}
	intern.PutCache(cache)
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

// NumCases returns the number of stored cases.
func (r *Reader) NumCases() int { return len(r.entries) }

// readAt decodes the case at index position i.
func (r *Reader) readAt(i int) (*trace.Case, error) {
	ent := &r.entries[i]
	if r.data != nil {
		// Zero-copy: the section is a subslice of the mapping; decode
		// copies every value out, so nothing escapes the mmap lifetime.
		sec := r.data[ent.offset : ent.offset+ent.length]
		return decodeCase(sec, i, ent, r.dict)
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
	return decodeCase(sec, i, ent, r.dict)
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
	return source.Ordered(b-a, parallelism, window, func(i int) (*trace.Case, error) {
		return r.readAt(a + i)
	})
}

// CaseRange selects the half-open slice [Start, End) of an archive's
// case order. End < 0 means the end of the archive.
type CaseRange struct {
	Start, End int
}

// Options configures OpenSource. The zero value streams every case,
// decoded by GOMAXPROCS workers. Decoded strings always intern into the
// process-wide string table.
type Options struct {
	// Parallelism bounds the concurrent section decodes
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// Window bounds the cases decoded but not yet consumed
	// (0 = 2×Parallelism).
	Window int
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
	return source.WithCloser(r.StreamRange(a, b, opts.Parallelism, opts.Window), r), nil
}
