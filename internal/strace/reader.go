package strace

import (
	"bufio"
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

// scanBufPool recycles the 64 KiB scanner line buffers of ReadRecords.
// With hundreds of per-rank trace files parsed concurrently, allocating a
// fresh buffer per file is measurable; pooling keeps the hot ParseLine
// loop allocation-free on the buffer side.
var scanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64*1024)
		return &b
	},
}

// caseBuf is the pooled per-file parsing state: the record slice
// ParseCase fills and discards once records become events, and the
// argument arena every record's Args subslices.
type caseBuf struct {
	records []Record
	args    argBuilder
}

// recordPool recycles the per-file parsing buffers.
var recordPool = sync.Pool{
	New: func() any {
		return &caseBuf{records: make([]Record, 0, 1024)}
	},
}

// maxLineBytes caps one trace line on every framing path: the batch
// scanner and the follow paths. A longer line is unparseable.
const maxLineBytes = 4 * 1024 * 1024

// errLineTooLong is the *ParseError of a line over maxLineBytes; the
// caller sets its line number.
func errLineTooLong() *ParseError {
	return &ParseError{Msg: "line longer than 4 MiB"}
}

// ReadRecords parses every line of an strace output stream into records.
// Unparseable lines are returned as errors unless lenient is true, in
// which case they are skipped and counted.
func ReadRecords(r io.Reader, lenient bool) ([]Record, int, error) {
	return readRecordsInto(nil, r, lenient, &argBuilder{})
}

// readRecordsInto is ReadRecords appending into a caller-provided slice
// and argument arena, enabling ParseCase to reuse pooled backing arrays
// across files.
func readRecordsInto(records []Record, r io.Reader, lenient bool, ab *argBuilder) ([]Record, int, error) {
	skipped := 0
	bufp := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(bufp)
	sc := bufio.NewScanner(r)
	sc.Buffer((*bufp)[:0], maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		rec, err := parseLineWith(text, ab)
		if err != nil {
			if lenient {
				skipped++
				continue
			}
			if pe, ok := err.(*ParseError); ok {
				pe.Line = line
			}
			return nil, skipped, err
		}
		rec.Line = line
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			pe := errLineTooLong()
			pe.Line = line + 1
			return nil, skipped, pe
		}
		return nil, skipped, fmt.Errorf("strace: reading trace: %w", err)
	}
	return records, skipped, nil
}

// ParseCase parses a single trace stream into a case with the given
// identity. Call names, file paths and the case identity strings are
// canonicalized through the symbol table opts.Syms selects (the
// process-wide intern.Default when nil), so the resulting events share
// one string per distinct value instead of allocating per event.
func ParseCase(id trace.CaseID, r io.Reader, opts Options) (*trace.Case, error) {
	cache := intern.CacheFor(opts.Syms)
	defer intern.PutCache(cache)
	id.CID = cache.Canon(id.CID)
	id.Host = cache.Canon(id.Host)

	cb := recordPool.Get().(*caseBuf)
	defer func() {
		// Drop the string references before pooling so the backing
		// arrays do not pin parsed line text across files. Clear the
		// records' full capacity: on a parse error the slice header is
		// still len 0 while the backing array already holds records.
		s := cb.records[:cap(cb.records)]
		clear(s)
		cb.records = s[:0]
		cb.args.reset()
		recordPool.Put(cb)
	}()
	records, _, err := readRecordsInto(cb.records[:0], r, !opts.Strict, &cb.args)
	if err != nil {
		return nil, err
	}
	cb.records = records
	events, err := eventsFromRecords(id, records, opts, cache)
	if err != nil {
		return nil, err
	}
	return trace.NewCase(id, events), nil
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

// ReadDir parses every "*.st" trace file in dir into an event-log. It is
// the bulk ingestion step that the paper performs before consolidating
// the cases into a single HDF5 file. Files are parsed concurrently under
// Options.Parallelism; the result is deterministic regardless.
func ReadDir(dir string, opts Options) (*trace.EventLog, error) {
	return ReadFS(os.DirFS(dir), ".", opts)
}

// ReadFS is ReadDir over an fs.FS, enabling tests to use in-memory
// filesystems. Unless Parallelism is 1, the fs.FS must be safe for
// concurrent Open and file reads (os.DirFS and fstest.MapFS are; the
// fs.FS contract itself does not guarantee it).
//
// ReadFS is the materializing form of StreamFS: it drains the stream
// into an event-log. The result is byte-for-byte identical to the
// sequential path for every Parallelism setting. Error semantics are
// deterministic too: without Strict the error reported is the one of
// the first failing file in case order (remaining files are
// abandoned); with Strict every file is parsed to completion and all
// failures are joined into one error.
func ReadFS(fsys fs.FS, root string, opts Options) (*trace.EventLog, error) {
	src, err := StreamFS(fsys, root, opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return source.Drain(src, opts.Strict)
}

// StreamDir is the streaming form of ReadDir: cases arrive one at a
// time in deterministic CaseID order at O(Options.Window) peak memory.
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
// file handles.
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
