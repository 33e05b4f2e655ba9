package strace

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/trace"
)

// maxLineBytes caps one trace line, newline excluded. A longer line is
// skipped like an unparseable one.
const maxLineBytes = 4 * 1024 * 1024

// readChunk is the least spare buffer capacity a read is offered;
// pooledBufBytes is the buffer a pooled framer keeps (one grown past it
// by a long line is released, not pooled).
const (
	readChunk      = 32 << 10
	pooledBufBytes = 64 << 10
)

// lineReader is the one strace framing loop: ParseCase,
// the Tailer and FollowReader all run it. It reads straight into the
// spare capacity of one buffer, parses every complete line into a
// record, and keeps the unterminated tail at the front of the buffer
// for the next read, so a truncated record is never materialized
// before end of input decides its fate. A line over maxLineBytes is
// never buffered whole: it is skipped like an unparseable line and its
// remaining bytes are dropped up to the next newline. A trailing '\r'
// is cut from every line, as bufio.ScanLines does.
type lineReader struct {
	buf     []byte // the unterminated tail; reads fill the capacity behind it
	discard bool   // inside an over-long line: drop bytes up to '\n'
	line    int    // 1-based number of the last line framed
	sawExit bool   // an exit record has been parsed
	records []record
	args    argBuilder // the arena every record's Args subslices
}

// lineReaderPool recycles framers across files: the buffer, the record
// backing array and the argument arena.
var lineReaderPool = sync.Pool{
	New: func() any { return new(lineReader) },
}

func getLineReader() *lineReader { return lineReaderPool.Get().(*lineReader) }

// put resets the framer and returns it to the pool.
func (lr *lineReader) put() {
	lr.reset()
	if cap(lr.buf) > pooledBufBytes {
		lr.buf = nil
	}
	lineReaderPool.Put(lr)
}

// reset drops all parse state — the truncation/rotation restart — and
// the string references, so a pooled framer does not pin parsed line
// text, keeping the backing arrays for reuse.
func (lr *lineReader) reset() {
	clear(lr.records)
	lr.args.reset()
	*lr = lineReader{buf: lr.buf[:0], records: lr.records[:0], args: lr.args}
}

// readFrom reads once from r into the buffer and parses every line the
// read completes; the newline search covers only the new bytes, as the
// buffered tail holds none. It returns the bytes read, the number of
// lines skipped as unparseable or over-long, the first skipped line's
// error and the read error; the caller applies its strictness policy.
func (lr *lineReader) readFrom(r io.Reader) (n, skips int, first *ParseError, err error) {
	if cap(lr.buf)-len(lr.buf) < readChunk {
		// Double a growing partial line, up to the most the cap can use.
		c := max(2*cap(lr.buf), pooledBufBytes)
		if c >= maxLineBytes {
			c = maxLineBytes + readChunk
		}
		lr.buf = append(make([]byte, 0, c), lr.buf...)
	}
	from := len(lr.buf)
	n, err = r.Read(lr.buf[from:cap(lr.buf)])
	p := lr.buf[:from+n]
	start := 0 // first byte of the line being framed
	skip := func(pe *ParseError) {
		if pe != nil {
			skips++
			first = cmp.Or(first, pe)
		}
	}
	for {
		i := bytes.IndexByte(p[from:], '\n')
		if i < 0 {
			break
		}
		line := p[start : from+i]
		start, from = from+i+1, from+i+1
		if lr.discard { // the over-long line ends here; it was counted
			lr.discard = false
			continue
		}
		lr.line++
		skip(lr.parse(line))
	}
	if start > 0 {
		p = p[:copy(p, p[start:])]
	}
	switch {
	case lr.discard:
		p = p[:0]
	case len(p) > maxLineBytes:
		lr.line++
		skip(lr.parse(p))
		p = p[:0]
		lr.discard = true
	}
	lr.buf = p
	return n, skips, first, err
}

// parse parses one framed line (newline cut) into a record, returning
// the error of a skipped line. Blank lines are neither records nor
// skips.
func (lr *lineReader) parse(b []byte) *ParseError {
	if len(b) > maxLineBytes {
		return &ParseError{Line: lr.line, Msg: "line longer than 4 MiB"}
	}
	b = bytes.TrimSuffix(b, []byte{'\r'})
	if len(bytes.TrimSpace(b)) == 0 {
		return nil
	}
	// The record is filled in place; a skipped line's slot is zeroed
	// and given back, so the spare capacity never pins line text.
	n := len(lr.records)
	lr.records = append(lr.records, record{})
	rec := &lr.records[n]
	if err := parseLineWith(string(b), rec, &lr.args); err != nil {
		*rec = record{}
		lr.records = lr.records[:n]
		pe := err.(*ParseError)
		pe.Line = lr.line
		return pe
	}
	rec.Line = lr.line
	lr.sawExit = lr.sawExit || rec.Kind == kindExit
	return nil
}

// end ends the input. On the batch path (parseTail) an unterminated
// final line is parsed as the last line, as bufio.Scanner does, and its
// error returned if it is skipped; on the follow paths it is dropped —
// never emitted truncated — and reported so the caller can count it.
func (lr *lineReader) end(parseTail bool) (dropped bool, skip *ParseError) {
	tail := lr.buf
	lr.buf = lr.buf[:0]
	if len(tail) == 0 || !parseTail {
		return len(tail) > 0, nil
	}
	lr.line++
	return false, lr.parse(tail)
}

// readAll runs the framer over r to end of input, then ends it with
// parseTail. Under strict the first skipped line is returned as its
// *ParseError; otherwise skipped lines are counted. dropped reports an
// unterminated final line dropped on the follow paths.
func (lr *lineReader) readAll(r io.Reader, strict, parseTail bool) (skipped int, dropped bool, err error) {
	for {
		_, skips, first, rerr := lr.readFrom(r)
		if errors.Is(rerr, io.EOF) {
			var pe *ParseError
			if dropped, pe = lr.end(parseTail); pe != nil {
				skips++
				first = cmp.Or(first, pe)
			}
		}
		if first != nil && strict {
			return 0, false, first
		}
		skipped += skips
		switch {
		case errors.Is(rerr, io.EOF):
			return skipped, dropped, nil
		case rerr != nil:
			return 0, false, fmt.Errorf("strace: reading trace: %w", rerr)
		}
	}
}

// buildCase is the one records → events → case step: it converts, and
// consumes, the framed records over a pooled cache of the string table
// opts.Syms selects, canonicalizing the case identity strings too.
func (lr *lineReader) buildCase(id trace.CaseID, opts Options) (*trace.Case, error) {
	cache := intern.CacheFor(opts.Syms)
	defer intern.PutCache(cache)
	id.CID = cache.Canon(id.CID)
	id.Host = cache.Canon(id.Host)
	events, err := eventsFromRecords(id, lr.records, opts, cache)
	if err != nil {
		return nil, err
	}
	return trace.NewCase(id, events), nil
}

// ParseCase parses a single trace stream into a case with the given
// identity. Call names, file paths and the case identity strings are
// canonicalized through the string table opts.Syms selects (the
// process-wide table when nil), so the resulting events share
// one string per distinct value instead of allocating per event. An
// unparseable line, or one over 4 MiB, is skipped unless opts.Strict,
// which returns it as a *ParseError; an unterminated final line is
// parsed like any other.
func ParseCase(id trace.CaseID, r io.Reader, opts Options) (*trace.Case, error) {
	lr := getLineReader()
	defer lr.put()
	if _, _, err := lr.readAll(r, opts.Strict, true); err != nil {
		return nil, err
	}
	return lr.buildCase(id, opts)
}

// ParseFile parses one trace file whose name follows the
// "<cid>_<host>_<rid>.st" convention of Figure 1.
func ParseFile(path string, opts Options) (*trace.Case, error) {
	id, err := trace.ParseCaseID(filepath.Base(path))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseCase(id, f, opts)
}

// StreamDir streams every "*.st" trace file in dir, the bulk ingestion
// step the paper performs before consolidating the cases into a single
// HDF5 file: cases arrive one at a time in deterministic CaseID order
// at O(Options.Window) peak memory.
func StreamDir(dir string, opts Options) (source.Source, error) {
	return StreamFS(os.DirFS(dir), ".", opts)
}

// StreamFS streams the "*.st" / "*.st.gz" trace files under root as a
// case source. Files are parsed concurrently by Options.Parallelism
// workers feeding an ordered, bounded reorder window (Options.Window),
// so cases are delivered in deterministic CaseID order — the same order
// the materialized event-log keeps — while at most Window parsed cases
// are resident. A per-file failure surfaces as an error at that case's
// position and the stream continues, which lets consumers choose
// between fail-fast (lenient ingestion) and collect-all (Strict).
// Closing the source cancels outstanding parses and waits for the
// workers to exit, so an abandoned stream leaks neither goroutines nor
// file handles. Unless Parallelism is 1, fsys must be safe for
// concurrent Open and file reads (os.DirFS and fstest.MapFS are; the
// fs.FS contract itself does not guarantee it).
func StreamFS(fsys fs.FS, root string, opts Options) (source.Source, error) {
	entries, err := fs.ReadDir(fsys, root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if strings.HasSuffix(ent.Name(), ".st") || strings.HasSuffix(ent.Name(), ".st.gz") {
			names = append(names, ent.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("strace: no *.st or *.st.gz trace files under %q", root)
	}
	sortByCase(names)
	return source.Ordered(len(names), opts.Parallelism, opts.Window, func(i int) (*trace.Case, error) {
		return parseFSFile(fsys, root, names[i], opts)
	}), nil
}

// sortByCase orders trace file names by their parsed CaseID — the
// canonical order of the event-log — so the streaming and materialized
// pipelines agree on delivery (and first-error) order. Names that do
// not parse as case identities sort by the whole name in the CID slot,
// keeping the order total and deterministic; they fail later with a
// naming error at their position.
func sortByCase(names []string) {
	key := func(name string) trace.CaseID {
		id, err := trace.ParseCaseID(strings.TrimSuffix(name, ".gz"))
		if err != nil {
			return trace.CaseID{CID: name}
		}
		return id
	}
	sort.Slice(names, func(i, j int) bool {
		ki, kj := key(names[i]), key(names[j])
		if ki != kj {
			return ki.Less(kj)
		}
		return names[i] < names[j]
	})
}

// parseFSFile opens, optionally decompresses, and parses one trace file.
func parseFSFile(fsys fs.FS, root, name string, opts Options) (*trace.Case, error) {
	id, err := trace.ParseCaseID(strings.TrimSuffix(name, ".gz"))
	if err != nil {
		return nil, err
	}
	f, err := fsys.Open(filepath.Join(root, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(name, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("strace: %s: %w", name, err)
		}
		defer gz.Close()
		r = gz
	}
	c, err := ParseCase(id, r, opts)
	if err != nil {
		return nil, fmt.Errorf("strace: %s: %w", name, err)
	}
	return c, nil
}
