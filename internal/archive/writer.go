package archive

import (
	"fmt"
	"io"

	"stinspector/internal/fsatomic"
	"stinspector/internal/intern"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
)

// indexEntry locates one case section within the file.
type indexEntry struct {
	id     trace.CaseID
	offset uint64
	length uint64
	events uint64
}

// v2Writer writes an STA archive incrementally: each Add encodes and
// flushes one case while only the file-level dictionary and the case
// index accumulate in memory. Memory is therefore proportional to the
// vocabulary and case count, not the event data, which is what lets
// tracegen emit multi-GB corpora without materializing them. Cases land
// in Add order; Finish writes the dictionary, index, and footer.
//
// Output is byte-for-byte reproducible for a given case sequence: the
// dictionary assigns symbols in first-use order, a pure function of the
// content.
type v2Writer struct {
	w        io.Writer
	written  int64
	err      error
	started  bool
	finished bool
	dict     *intern.Local
	entries  []indexEntry
	cols     [6]wire.Buf // per-column scratch, reused across cases
	sec      wire.Buf    // assembled-section scratch, reused across cases
}

// newV2Writer returns a writer that will stream an STA archive to w.
// The caller must call Finish to complete the file.
func newV2Writer(w io.Writer) *v2Writer {
	return &v2Writer{w: w, dict: intern.NewLocal()}
}

func (vw *v2Writer) count(p []byte) error {
	n, err := vw.w.Write(p)
	vw.written += int64(n)
	if err != nil {
		vw.err = err
	}
	return err
}

func (vw *v2Writer) start() error {
	if vw.started {
		return vw.err
	}
	vw.started = true
	var head wire.Buf
	head.Raw([]byte(magic))
	head.U32(version)
	return vw.count(head.Bytes())
}

// Add appends one case to the archive. The case must be sorted by start
// time (Equation (2) order), which is also what lets readers skip
// re-sorting: the delta-encoded start column proves the order. Cases
// must arrive in strictly ascending CaseID order, the order the reader
// checks and streams.
func (vw *v2Writer) Add(c *trace.Case) error {
	if vw.finished {
		return fmt.Errorf("archive: Add after Finish")
	}
	if vw.err != nil {
		return vw.err
	}
	if err := vw.start(); err != nil {
		return err
	}
	if !c.Sorted() {
		return fmt.Errorf("archive: case %s is not sorted by start time", c.ID)
	}
	if k := len(vw.entries); k > 0 && !vw.entries[k-1].id.Less(c.ID) {
		return fmt.Errorf("archive: case %s does not come after %s in CaseID order", c.ID, vw.entries[k-1].id)
	}
	// The identity takes its ids before the events do: the dictionary's
	// first-use order is part of the format.
	vw.dict.Intern(c.ID.CID)
	vw.dict.Intern(c.ID.Host)
	sec := vw.encodeCase(c, len(vw.entries))
	vw.entries = append(vw.entries, indexEntry{
		id:     c.ID,
		offset: uint64(vw.written),
		length: uint64(len(sec)),
		events: uint64(len(c.Events)),
	})
	return vw.count(sec)
}

// Finish writes the dictionary, index, and footer. The writer cannot be
// used afterwards.
func (vw *v2Writer) Finish() error {
	if vw.finished {
		return fmt.Errorf("archive: Finish twice")
	}
	if vw.err != nil {
		return vw.err
	}
	if err := vw.start(); err != nil {
		return err
	}
	vw.finished = true

	dictOffset := uint64(vw.written)
	var dict wire.Buf
	dict.Dict(vw.dict.Strs())
	dict.U32(wire.Checksum(dict.Bytes()))
	if err := vw.count(dict.Bytes()); err != nil {
		return err
	}

	indexOffset := uint64(vw.written)
	sym := func(s string) uint64 { return uint64(vw.dict.Intern(s)) }
	var idx wire.Buf
	idx.Uvarint(uint64(len(vw.entries)))
	for _, ent := range vw.entries {
		idx.CaseID(ent.id, sym)
		idx.Uvarint(ent.offset)
		idx.Uvarint(ent.length)
		idx.Uvarint(ent.events)
	}
	if err := vw.count(idx.Bytes()); err != nil {
		return err
	}

	var foot wire.Buf
	foot.U64(dictOffset)
	foot.U64(indexOffset)
	foot.U32(wire.Checksum(idx.Bytes()))
	foot.Raw([]byte(footerMagic))
	return vw.count(foot.Bytes())
}

// encodeCase serializes one case as a columnar section (see format.go
// for the layout). Column scratch buffers are reused across
// cases, so steady-state encoding allocates only when a column outgrows
// its previous high-water mark.
func (vw *v2Writer) encodeCase(c *trace.Case, ordinal int) []byte {
	for j := range vw.cols {
		vw.cols[j].Reset()
	}
	pid, call, start := &vw.cols[0], &vw.cols[1], &vw.cols[2]
	dur, fp, size := &vw.cols[3], &vw.cols[4], &vw.cols[5]
	prev := int64(0)
	for i, e := range c.Events {
		pid.Varint(int64(e.PID))
		call.Uvarint(uint64(vw.dict.Intern(e.Call)))
		v := int64(e.Start)
		if i == 0 {
			start.Varint(v)
		} else {
			start.Uvarint(uint64(v - prev))
		}
		prev = v
		dur.Uvarint(uint64(e.Dur))
		fp.Uvarint(uint64(vw.dict.Intern(e.FP)))
		size.Varint(e.Size)
	}

	sec := &vw.sec
	sec.Reset()
	sec.Uvarint(uint64(ordinal))
	sec.Uvarint(uint64(len(c.Events)))
	for j := range vw.cols {
		sec.Uvarint(uint64(vw.cols[j].Len()))
	}
	for j := range vw.cols {
		sec.Raw(vw.cols[j].Bytes())
	}
	sec.U32(wire.Checksum(sec.Bytes()))
	return sec.Bytes()
}

// writeV2 serializes the event-log in the STA format. Cases are written
// in the log's deterministic order; the output is byte-for-byte
// reproducible for a given log.
func writeV2(w io.Writer, log *trace.EventLog) error {
	vw := newV2Writer(w)
	for _, c := range log.Cases() {
		if err := vw.Add(c); err != nil {
			return err
		}
	}
	return vw.Finish()
}

// WriteFileV2 serializes the event-log to a file. The write is
// crash-safe: the archive lands in a temporary file that is synced and
// renamed over path only once complete, so an error or crash mid-write
// can never leave a truncated .sta behind — path holds either its
// previous content or the full new archive.
func WriteFileV2(path string, log *trace.EventLog) error {
	return fsatomic.WriteFile(path, func(w io.Writer) error {
		return writeV2(w, log)
	})
}
