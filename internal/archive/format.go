// Package archive implements STA, a single-file binary event-log
// container. It stands in for the HDF5 consolidation step of the paper's
// implementation (Section V): "each processed trace file (i.e., each
// case) is stored in a separate group within the HDF5 file as a table"
// whose columns are the event attributes pid, call, start, dur, fp, size,
// with rows sorted by start timestamp.
//
// STA is columnar, indexed and mmap-able, and it optimizes
// re-ingestion: strings are interned once per file into a single
// dictionary, sections carry only integer columns, and the index
// addresses every case (and, via per-column lengths, every column)
// directly — so a reader maps the file, loads the dictionary into its
// string table once, and decodes events without hashing a single string
// or sorting a single row.
//
// Layout:
//
//	"STA2" | u32 version
//	section*             (one per case, columnar; see below)
//	dict                 (file-level symbol dictionary | u32 CRC)
//	index                (uvarint n | (cidSym hostSym rid offset length events)*)
//	u64 dict offset | u64 index offset | u32 index CRC | "2ATS"
//
// section (all row values for one case, stored column-major):
//
//	uvarint ordinal      (the case's index position, cross-checked)
//	uvarint nEvents
//	uvarint len ×6       (byte length of each column block)
//	pid    varint[]
//	call   uvarint[]     (file-dictionary symbols)
//	start  varint first, then non-negative uvarint deltas
//	dur    uvarint[]
//	fp     uvarint[]     (file-dictionary symbols)
//	size   varint[]
//	u32 CRC              (over everything above)
//
// The dictionary is a wire string dictionary (wire.Buf.Dict) in
// first-use order — a pure function of the written content, so the
// output is byte-for-byte reproducible. It doubles as the string arena:
// the call and fp columns, and the index's CID/Host fields, are all
// ids into it. The index holds (identity, offset, length, events) per
// case, each identity a wire case-identity triple (wire.Buf.CaseID).
// Every other primitive is wire's too, and a damaged file fails with a
// wire.CorruptError.
//
// Every region is independently checksummed (sections and dict inline,
// index from the footer), and the decoder validates claimed counts,
// lengths, and symbol ids against the bytes actually present before
// any allocation: production readers decode sections zero-copy from an
// mmap of untrusted bytes, so decode must fail closed.
//
// The earlier row-oriented "STA1" layout is no longer decoded; opening
// one fails with errV1.
package archive

import "errors"

const (
	magic       = "STA2"
	footerMagic = "2ATS"
	version     = 2

	// magicV1 identifies the retired row-oriented layout, recognized
	// only to reject it with errV1.
	magicV1 = "STA1"
)

// headerSize is the fixed head of the file: magic and version.
const headerSize = 4 + 4

// footerSize is the fixed tail: dict offset, index offset, index CRC,
// magic.
const footerSize = 8 + 8 + 4 + 4

// errV1 reports an archive in the retired STA v1 layout. Such files
// are not corrupt, just no longer decoded: re-archiving the original
// traces writes the current format.
var errV1 = errors.New("STA v1 file: this format is no longer supported; re-archive from the original traces (stinspect archive -traces DIR -o FILE.sta)")
