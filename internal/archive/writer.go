package archive

import (
	"fmt"
	"io"

	"stinspector/internal/fsatomic"
	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// indexEntry locates one case section within the file; cidSym and
// hostSym are the dictionary encoding of the identity.
type indexEntry struct {
	id      trace.CaseID
	cidSym  uint32
	hostSym uint32
	offset  uint64
	length  uint64
	events  uint64
}

// V2Writer writes an STA archive incrementally: each Add encodes and
// flushes one case while only the file-level dictionary and the case
// index accumulate in memory. Memory is therefore proportional to the
// vocabulary and case count, not the event data, which is what lets
// tracegen emit multi-GB corpora without materializing them. Cases land
// in Add order; Finish writes the dictionary, index, and footer.
//
// Output is byte-for-byte reproducible for a given case sequence: the
// dictionary assigns symbols in first-use order, a pure function of the
// content.
type V2Writer struct {
	w        io.Writer
	written  int64
	err      error
	started  bool
	finished bool
	dict     *intern.Local
	entries  []indexEntry
	cols     [6]buf // per-column scratch, reused across cases
	sec      buf    // assembled-section scratch, reused across cases
}

// NewV2Writer returns a writer that will stream an STA archive to w.
// The caller must call Finish to complete the file.
func NewV2Writer(w io.Writer) *V2Writer {
	return &V2Writer{w: w, dict: intern.NewLocal()}
}

func (vw *V2Writer) count(p []byte) error {
	n, err := vw.w.Write(p)
	vw.written += int64(n)
	if err != nil {
		vw.err = err
	}
	return err
}

func (vw *V2Writer) start() error {
	if vw.started {
		return vw.err
	}
	vw.started = true
	var head buf
	head.raw([]byte(magic))
	head.u32(version)
	return vw.count(head.bytes())
}

// Add appends one case to the archive. The case must be sorted by start
// time (Equation (2) order), which is also what lets readers skip
// re-sorting: the delta-encoded start column proves the order.
func (vw *V2Writer) Add(c *trace.Case) error {
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
	cidSym := vw.dict.Intern(c.ID.CID)
	hostSym := vw.dict.Intern(c.ID.Host)
	sec := vw.encodeCase(c, len(vw.entries))
	vw.entries = append(vw.entries, indexEntry{
		id:      c.ID,
		cidSym:  uint32(cidSym),
		hostSym: uint32(hostSym),
		offset:  uint64(vw.written),
		length:  uint64(len(sec)),
		events:  uint64(len(c.Events)),
	})
	return vw.count(sec)
}

// Finish writes the dictionary, index, and footer. The writer cannot be
// used afterwards.
func (vw *V2Writer) Finish() error {
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
	payload := vw.dict.AppendDict(nil)
	var dict buf
	dict.raw(payload)
	dict.u32(checksum(payload))
	if err := vw.count(dict.bytes()); err != nil {
		return err
	}

	indexOffset := uint64(vw.written)
	var idx buf
	idx.uvarint(uint64(len(vw.entries)))
	for _, ent := range vw.entries {
		idx.uvarint(uint64(ent.cidSym))
		idx.uvarint(uint64(ent.hostSym))
		idx.varint(int64(ent.id.RID))
		idx.uvarint(ent.offset)
		idx.uvarint(ent.length)
		idx.uvarint(ent.events)
	}
	if err := vw.count(idx.bytes()); err != nil {
		return err
	}

	var foot buf
	foot.u64(dictOffset)
	foot.u64(indexOffset)
	foot.u32(checksum(idx.bytes()))
	foot.raw([]byte(footerMagic))
	return vw.count(foot.bytes())
}

// encodeCase serializes one case as a columnar section (see format.go
// for the layout). Column scratch buffers are reused across
// cases, so steady-state encoding allocates only when a column outgrows
// its previous high-water mark.
func (vw *V2Writer) encodeCase(c *trace.Case, ordinal int) []byte {
	for j := range vw.cols {
		vw.cols[j].b = vw.cols[j].b[:0]
	}
	pid, call, start := &vw.cols[0], &vw.cols[1], &vw.cols[2]
	dur, fp, size := &vw.cols[3], &vw.cols[4], &vw.cols[5]
	prev := int64(0)
	for i, e := range c.Events {
		pid.varint(int64(e.PID))
		call.uvarint(uint64(vw.dict.Intern(e.Call)))
		v := int64(e.Start)
		if i == 0 {
			start.varint(v)
		} else {
			start.uvarint(uint64(v - prev))
		}
		prev = v
		dur.uvarint(uint64(e.Dur))
		fp.uvarint(uint64(vw.dict.Intern(e.FP)))
		size.varint(e.Size)
	}

	sec := &vw.sec
	sec.b = sec.b[:0]
	sec.uvarint(uint64(ordinal))
	sec.uvarint(uint64(len(c.Events)))
	for j := range vw.cols {
		sec.uvarint(uint64(len(vw.cols[j].b)))
	}
	for j := range vw.cols {
		sec.raw(vw.cols[j].b)
	}
	sec.u32(checksum(sec.b))
	return sec.b
}

// WriteV2 serializes the event-log in the STA format. Cases are written
// in the log's deterministic order; the output is byte-for-byte
// reproducible for a given log.
func WriteV2(w io.Writer, log *trace.EventLog) error {
	vw := NewV2Writer(w)
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
		return WriteV2(w, log)
	})
}
