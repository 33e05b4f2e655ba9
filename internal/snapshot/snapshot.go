// Package snapshot defines STS, the durable single-file form of one
// analysis fold's pre-Finalize state: the activity-log, the statistics
// computer (128-bit rate sums and max-concurrency spans included), the
// behavior profile and the set of CaseIDs already folded. The DFG is
// not stored: it is a function of the activity-log, built from it at
// finalize. It is the persistence layer the checkpoint/resume engine
// and the multi-process merge (`stinspect -merge-snapshots`) stand on:
// because every aggregate's Merge is exact, snapshots written by N
// separate processes merge into the same bytes a single-process fold
// produces.
//
// The container reuses the STA archive idioms: a magic/version header,
// one checksummed section per payload, a footer-located CRC'd index. It
// and every section are written and read with internal/wire, the codec
// the archive uses too, and a damaged file fails with a
// wire.CorruptError.
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
// resumption is not supported; any other version fails with ErrVersion,
// and the cure is to re-fold. Within a version the section set is fixed
// (meta, seen, log, stats, behavior — each exactly once) and unknown
// section kinds are corruption, not extensions. Version 2 added the
// behavior-profile section. Version 3 changed the stats section:
// activities in string order, each with its max-concurrency spans
// sorted by (start, end) as (start delta, duration) pairs, and no case
// identities (see stats.Computer.EncodeSnapshot). Version 4 dropped the
// DFG section: the DFG is built from the activity-log at finalize. Its
// kind, 4, is retired, not reused, so a file that holds it is corrupt.
//
// Canonical bytes: every section is a function of the folded state
// alone, so a snapshot's bytes depend only on the set of cases folded —
// not on their arrival order, the shard count or the epoch and resume
// history. The seen set is sorted, the activity-log's contents are in
// canonical order, and the statistics are in string and span order.
//
// Symbol handling: every section that holds strings writes them as one
// wire string dictionary (first-use or string order) and refers to
// them by id, case identities as wire (cidSym, hostSym, rid) triples;
// on load the statistics and behavior re-intern theirs through fresh
// scoped tables, so no symbol of the writer's process leaks into the
// file.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"stinspector/internal/behavior"
	"stinspector/internal/fsatomic"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
)

const (
	magic       = "STS1"
	footerMagic = "1STS"
	version     = 4
)

// ErrVersion reports a snapshot written in another STS version. Such a
// file is not corrupt, only unreadable by this build: the checkpoint or
// partial it holds has to be rebuilt by folding the traces again.
var ErrVersion = errors.New("unsupported STS version; re-fold the traces to rebuild it")

// footerSize is the fixed tail: index offset, index CRC, magic.
const footerSize = 8 + 4 + 4

// Section kinds of version 4. All five must appear exactly once. Kind
// 4 held the DFG up to version 3 and is retired.
const (
	kindMeta     = 1 // cases, events counters
	kindSeen     = 2 // folded CaseID set
	kindLog      = 3 // pm.Log
	kindStats    = 5 // stats.Computer
	kindBehavior = 6 // behavior.Profile
)

// Snapshot is one fold's durable state: the three mergeable aggregates
// (activity-log, statistics, behavior) plus the CaseIDs they cover.
// Stats is kept pre-Finalize (a Computer, not a Stats) because
// finalization is lossy — rates are divided, intervals are swept away —
// and resumed folds must keep merging exactly.
type Snapshot struct {
	Log      *pm.Log
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
// identical bytes whatever process, shard count, case arrival order or
// resume history produced it.
func Encode(s *Snapshot) []byte { return encodeSections(sectionsOf(s)) }

// sectionsOf encodes the snapshot's payloads, one section per kind.
func sectionsOf(s *Snapshot) []section {
	var meta wire.Buf
	meta.Uvarint(uint64(s.Cases))
	meta.Uvarint(uint64(s.Events))
	return []section{
		{kindMeta, meta.Bytes()},
		{kindSeen, encodeSeen(s.Seen)},
		{kindLog, s.Log.EncodeSnapshot()},
		{kindStats, s.Stats.EncodeSnapshot()},
		{kindBehavior, s.Behavior.EncodeSnapshot()},
	}
}

// section is one payload of the container, before framing.
type section struct {
	kind int
	body []byte
}

// encodeSections frames the section bodies into a container: header,
// one checksummed record per section, index and footer.
func encodeSections(sections []section) []byte {
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

// decode reconstructs a snapshot, verifying the magic, version, index
// checksum and every section checksum. The mapping must be the one the
// fold ran under (the statistics computer re-binds to it). A file of
// another STS version fails with ErrVersion. Hostile or corrupt input —
// truncation, bit flips, out-of-range ids, impossible counts — yields a
// wire.CorruptError, never a panic.
func decode(data []byte, m pm.Mapping) (*Snapshot, error) {
	// Magic and version come before the size floor, so that a short
	// file of another version still reads as that version.
	if len(data) < len(magic)+4 {
		return nil, wire.Corruptf("file too small (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, wire.Corruptf("bad magic %q", data[:4])
	}
	ver, err := wire.NewCursor(data[4:]).U32()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("%w: the file is version %d, this build reads version %d", ErrVersion, ver, version)
	}
	if len(data) < len(magic)+4+footerSize {
		return nil, wire.Corruptf("file too small (%d bytes)", len(data))
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
		case kindMeta, kindSeen, kindLog, kindStats, kindBehavior:
			sections[kind] = body
		default:
			return nil, wire.Corruptf("unknown section kind %d", kind)
		}
	}
	for _, kind := range []int{kindMeta, kindSeen, kindLog, kindStats, kindBehavior} {
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
	sym := func(s string) uint64 { return uint64(dict.Intern(s)) }
	var b wire.Buf
	b.Uvarint(uint64(len(seen)))
	for _, id := range seen {
		b.CaseID(id, sym)
	}
	var out wire.Buf
	out.Dict(dict.Strs())
	out.Raw(b.Bytes())
	return out.Bytes()
}

func decodeSeen(data []byte) ([]trace.CaseID, error) {
	c := wire.NewCursor(data)
	dict, err := c.Dict()
	if err != nil {
		return nil, err
	}
	n, err := c.Count(3)
	if err != nil {
		return nil, err
	}
	seen := make([]trace.CaseID, n)
	for i := range seen {
		if seen[i], err = c.CaseID(dict); err != nil {
			return nil, err
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return seen, nil
}

// Merge folds partial snapshots (shard or epoch partials of one logical
// fold) into the first non-nil input and returns it, exactly: the
// activity-logs union under the sorted case-list interleave, the
// statistics merge in integer space, the behavior profiles sum
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
		out.Stats.Merge(s.Stats)
		out.Behavior.Merge(s.Behavior)
		out.Seen = trace.MergeCaseIDs(out.Seen, s.Seen)
		out.Cases += s.Cases
		out.Events += s.Events
	}
	if out == nil {
		return &Snapshot{Log: &pm.Log{}, Behavior: behavior.New()}
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
// A decode error names the file.
func ReadFile(path string, m pm.Mapping) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(data, m)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return s, nil
}
