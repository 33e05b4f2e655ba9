// Package snapshot defines STS, the durable single-file form of one
// analysis fold's pre-Finalize state: the activity-log, the DFG, the
// statistics computer (128-bit rate sums and max-concurrency interval
// sets included), the behavior profile and the set of CaseIDs already
// folded. It is the
// persistence layer the checkpoint/resume engine and the multi-process
// merge (`stinspect -merge-snapshots`) stand on: because every
// aggregate's Merge is exact, snapshots written by N separate processes
// merge into the same bytes a single-process fold produces.
//
// The container reuses the STA archive idioms: a magic/version header,
// one checksummed section per payload, a footer-located CRC'd index.
//
// Layout:
//
//	"STS1" | u32 version
//	section*          (uvarint kind | uvarint bodyLen | body | u32 CRC)
//	index             (uvarint n | (uvarint kind | uvarint offset | uvarint length)*)
//	u64 index offset | u32 index CRC | "1STS"
//
// Version compatibility: a reader accepts exactly its own version —
// the format captures internal pre-Finalize state, so cross-version
// resumption is not supported; re-fold instead. Within a version the
// section set is fixed (meta, seen, log, dfg, stats, behavior — each
// exactly once) and unknown section kinds are corruption, not
// extensions. Version 2 added the behavior-profile section.
//
// Symbol handling: every payload serializes its strings as a per-file
// intern dictionary in first-use order; on load the dictionary is
// re-interned through a fresh scoped table in file order, which (a
// fresh table assigns symbol i to the i-th distinct string) reproduces
// the writer's symbol assignment exactly.
package snapshot

import (
	"encoding/binary"
	"os"

	"stinspector/internal/behavior"
	"stinspector/internal/dfg"
	"stinspector/internal/fsatomic"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot/wire"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
)

const (
	magic       = "STS1"
	footerMagic = "1STS"
	version     = 2
)

// footerSize is the fixed tail: index offset, index CRC, magic.
const footerSize = 8 + 4 + 4

// Section kinds of version 2. All six must appear exactly once.
const (
	kindMeta     = 1 // cases, events counters
	kindSeen     = 2 // folded CaseID set
	kindLog      = 3 // pm.Log
	kindDFG      = 4 // dfg.Graph
	kindStats    = 5 // stats.Computer
	kindBehavior = 6 // behavior.Profile
)

// Snapshot is one fold's durable state: the three mergeable aggregates
// plus the CaseIDs they cover. Stats is kept pre-Finalize (a Computer,
// not a Stats) because finalization is lossy — rates are divided,
// intervals are swept away — and resumed folds must keep merging
// exactly.
type Snapshot struct {
	Log      *pm.Log
	DFG      *dfg.Graph
	Stats    *stats.Computer
	Behavior *behavior.Profile
	// Seen lists the CaseIDs folded into the aggregates, in ascending
	// order; a resumed fold skips exactly these.
	Seen []trace.CaseID
	// Cases and Events count what the fold consumed (Cases == len(Seen)
	// for folds over well-formed sources).
	Cases, Events int
}

// Encode serializes a fully-populated snapshot. The encoding is a pure
// function of the snapshot's content: identical state encodes to
// identical bytes whatever process, shard count or resume history
// produced it.
func Encode(s *Snapshot) []byte {
	var meta wire.Buf
	meta.Uvarint(uint64(s.Cases))
	meta.Uvarint(uint64(s.Events))
	sections := []struct {
		kind int
		body []byte
	}{
		{kindMeta, meta.Bytes()},
		{kindSeen, encodeSeen(s.Seen)},
		{kindLog, s.Log.EncodeSnapshot()},
		{kindDFG, s.DFG.EncodeSnapshot()},
		{kindStats, s.Stats.EncodeSnapshot()},
		{kindBehavior, s.Behavior.EncodeSnapshot()},
	}
	// The bodies are known before the container is written: size it
	// once (each section adds at most two varints and a CRC, the index
	// at most three varints per section).
	size := len(magic) + 4 + footerSize + binary.MaxVarintLen64
	for _, sec := range sections {
		size += len(sec.body) + 5*binary.MaxVarintLen64 + 4
	}
	var b wire.Buf
	b.Grow(size)
	b.Raw([]byte(magic))
	b.U32(version)

	type entry struct {
		kind, offset, length int
	}
	entries := make([]entry, 0, len(sections))
	for _, sec := range sections {
		start := b.Len()
		b.Uvarint(uint64(sec.kind))
		b.Uvarint(uint64(len(sec.body)))
		b.Raw(sec.body)
		b.U32(wire.Checksum(sec.body))
		entries = append(entries, entry{kind: sec.kind, offset: start, length: b.Len() - start})
	}

	indexOffset := b.Len()
	var idx wire.Buf
	idx.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		idx.Uvarint(uint64(e.kind))
		idx.Uvarint(uint64(e.offset))
		idx.Uvarint(uint64(e.length))
	}
	b.Raw(idx.Bytes())
	b.U64(uint64(indexOffset))
	b.U32(wire.Checksum(idx.Bytes()))
	b.Raw([]byte(footerMagic))
	return b.Bytes()
}

// Decode reconstructs a snapshot, verifying the magic, version, index
// checksum and every section checksum. The mapping must be the one the
// fold ran under (the statistics computer re-binds to it). Hostile or
// corrupt input — truncation, bit flips, out-of-range ids, impossible
// counts — yields a wire.CorruptError, never a panic.
func Decode(data []byte, m pm.Mapping) (*Snapshot, error) {
	if len(data) < len(magic)+4+footerSize {
		return nil, wire.Corruptf("file too small (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, wire.Corruptf("bad magic %q", data[:4])
	}
	hc := wire.NewCursor(data[4:])
	ver, err := hc.U32()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, wire.Corruptf("unsupported version %d", ver)
	}

	foot := data[len(data)-footerSize:]
	fc := wire.NewCursor(foot)
	indexOffset, err := fc.U64()
	if err != nil {
		return nil, err
	}
	indexCRC, err := fc.U32()
	if err != nil {
		return nil, err
	}
	if string(foot[12:16]) != footerMagic {
		return nil, wire.Corruptf("bad footer magic %q", foot[12:16])
	}
	bodyEnd := uint64(len(data) - footerSize)
	if indexOffset > bodyEnd {
		return nil, wire.Corruptf("index offset %d beyond file", indexOffset)
	}
	idx := data[indexOffset:bodyEnd]
	if wire.Checksum(idx) != indexCRC {
		return nil, wire.Corruptf("index checksum mismatch")
	}

	ic := wire.NewCursor(idx)
	n, err := ic.Count(3)
	if err != nil {
		return nil, err
	}
	sections := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		kind, err := ic.Int()
		if err != nil {
			return nil, err
		}
		offset, err := ic.Uvarint()
		if err != nil {
			return nil, err
		}
		length, err := ic.Uvarint()
		if err != nil {
			return nil, err
		}
		// Compared without computing offset+length: hostile values near
		// MaxUint64 would wrap the sum back into range.
		if length > indexOffset || offset > indexOffset-length {
			return nil, wire.Corruptf("section %d at [%d,+%d) overlaps index", kind, offset, length)
		}
		body, err := decodeSection(data[offset:offset+length], kind)
		if err != nil {
			return nil, err
		}
		if _, ok := sections[kind]; ok {
			return nil, wire.Corruptf("duplicate section kind %d", kind)
		}
		switch kind {
		case kindMeta, kindSeen, kindLog, kindDFG, kindStats, kindBehavior:
			sections[kind] = body
		default:
			return nil, wire.Corruptf("unknown section kind %d", kind)
		}
	}
	for _, kind := range []int{kindMeta, kindSeen, kindLog, kindDFG, kindStats, kindBehavior} {
		if _, ok := sections[kind]; !ok {
			return nil, wire.Corruptf("missing section kind %d", kind)
		}
	}

	s := &Snapshot{}
	mc := wire.NewCursor(sections[kindMeta])
	if s.Cases, err = mc.Int(); err != nil {
		return nil, err
	}
	if s.Events, err = mc.Int(); err != nil {
		return nil, err
	}
	if err := mc.Done(); err != nil {
		return nil, err
	}
	if s.Seen, err = decodeSeen(sections[kindSeen]); err != nil {
		return nil, err
	}
	if s.Log, err = pm.DecodeLogSnapshot(sections[kindLog]); err != nil {
		return nil, err
	}
	if s.DFG, err = dfg.DecodeGraphSnapshot(sections[kindDFG]); err != nil {
		return nil, err
	}
	if s.Stats, err = stats.DecodeComputerSnapshot(sections[kindStats], m); err != nil {
		return nil, err
	}
	if s.Behavior, err = behavior.DecodeSnapshot(sections[kindBehavior]); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeSection unwraps and checksums one kind|len|body|crc record.
func decodeSection(section []byte, kind int) ([]byte, error) {
	c := wire.NewCursor(section)
	gotKind, err := c.Int()
	if err != nil {
		return nil, err
	}
	if gotKind != kind {
		return nil, wire.Corruptf("section holds kind %d, index says %d", gotKind, kind)
	}
	bodyLen, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(c.Remaining()) < 4 || bodyLen != uint64(c.Remaining())-4 {
		return nil, wire.Corruptf("section kind %d: body length %d does not match record", kind, bodyLen)
	}
	body := section[c.Offset() : c.Offset()+int(bodyLen)]
	cc := wire.NewCursor(section[c.Offset()+int(bodyLen):])
	crc, err := cc.U32()
	if err != nil {
		return nil, err
	}
	if wire.Checksum(body) != crc {
		return nil, wire.Corruptf("section kind %d: checksum mismatch", kind)
	}
	return body, nil
}

// encodeSeen serializes the folded CaseID set with its own string
// dictionary: dict n | string* | count | (cidSym hostSym rid)*.
func encodeSeen(seen []trace.CaseID) []byte {
	dict := intern.NewLocal()
	var b wire.Buf
	b.Uvarint(uint64(len(seen)))
	for _, id := range seen {
		b.Uvarint(uint64(dict.Intern(id.CID)))
		b.Uvarint(uint64(dict.Intern(id.Host)))
		b.Varint(int64(id.RID))
	}
	return append(dict.AppendDict(nil), b.Bytes()...)
}

func decodeSeen(data []byte) ([]trace.CaseID, error) {
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
			return nil, wire.Corruptf("duplicate seen-dictionary string %q", s)
		}
	}
	n, err := c.Count(3)
	if err != nil {
		return nil, err
	}
	seen := make([]trace.CaseID, n)
	for i := range seen {
		cy, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		hy, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if cy >= uint64(nd) || hy >= uint64(nd) {
			return nil, wire.Corruptf("seen dictionary id out of range (%d strings)", nd)
		}
		seen[i].CID = dict.Str(intern.Sym(cy))
		seen[i].Host = dict.Str(intern.Sym(hy))
		rid, err := c.Varint()
		if err != nil {
			return nil, err
		}
		seen[i].RID = int(rid)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return seen, nil
}

// Merge folds partial snapshots (shard or epoch partials of one logical
// fold) into the first non-nil input and returns it, exactly: the
// activity-logs union under the sorted case-list interleave, the graphs
// sum, the statistics merge in integer space, the behavior profiles sum
// under a string-preserving remap, the ascending seen sets merge. nil
// inputs are skipped; with none left the result is an empty snapshot.
//
// Every input is consumed. The target is updated in place, so folding
// an epoch into a checkpoint's accumulated state costs the epoch, not
// the history; the later inputs are only read, but must not be used
// afterwards.
//
// Merging snapshots of a disjoint case partition in any order yields
// the same state a single fold over all the cases produces — the
// property the byte-identity acceptance tests pin.
func Merge(snaps ...*Snapshot) *Snapshot {
	var out *Snapshot
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if out == nil {
			out = s
			continue
		}
		out.Log.Merge(s.Log)
		out.DFG.Merge(s.DFG)
		out.Stats.Merge(s.Stats)
		out.Behavior.Merge(s.Behavior)
		out.Seen = trace.MergeCaseIDs(out.Seen, s.Seen)
		out.Cases += s.Cases
		out.Events += s.Events
	}
	if out == nil {
		return &Snapshot{Log: pm.MergeLogs(), DFG: dfg.New(), Behavior: behavior.New()}
	}
	return out
}

// WriteFile atomically writes the snapshot to path: the bytes land in a
// temporary file synced and renamed into place, so a crash or error
// mid-write leaves the previous checkpoint intact — a checkpoint that
// could itself be torn would defeat resuming.
func WriteFile(path string, s *Snapshot) error {
	return fsatomic.WriteFileBytes(path, Encode(s))
}

// ReadFile loads and decodes a snapshot file under the given mapping.
func ReadFile(path string, m pm.Mapping) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, m)
}
