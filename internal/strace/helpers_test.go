package strace

import (
	"io"
	"io/fs"
	"os"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/trace"
)

// parseLine parses one line of strace output into a record with a
// private argument arena.
func parseLine(line string) (record, error) {
	var rec record
	err := parseLineWith(line, &rec, &argBuilder{})
	return rec, err
}

// splitArgs splits a whole argument list with a private arena.
func splitArgs(s string) []string {
	args, _, _ := new(argBuilder).scan(s, false)
	return args
}

// readFS drains StreamFS into an event-log, joining every per-file
// failure under opts.Strict and stopping at the first one otherwise.
func readFS(fsys fs.FS, root string, opts Options) (*trace.EventLog, error) {
	src, err := StreamFS(fsys, root, opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return source.Drain(src, opts.Strict)
}

// readDir is readFS over the trace files of dir.
func readDir(dir string, opts Options) (*trace.EventLog, error) {
	return readFS(os.DirFS(dir), ".", opts)
}

// readRecords frames and parses every line of an strace output stream
// into records through the one framing loop ParseCase runs. Unparseable
// lines and lines over 4 MiB are errors unless lenient, in which case
// they are skipped and counted.
func readRecords(r io.Reader, lenient bool) ([]record, int, error) {
	lr := &lineReader{}
	skipped, _, err := lr.readAll(r, !lenient, true)
	if err != nil {
		return nil, 0, err
	}
	return lr.records, skipped, nil
}

// convertRecords runs the record-to-event conversion of the parse path
// over a copy of records, with a cache of the table opts.Syms selects.
func convertRecords(id trace.CaseID, records []record, opts Options) ([]trace.Event, error) {
	cache := intern.CacheFor(opts.Syms)
	defer intern.PutCache(cache)
	return eventsFromRecords(id, append([]record(nil), records...), opts, cache)
}

// extractPath is the file path extractPathInto finds for r, as a string.
func extractPath(r record) string {
	var scratch []byte
	p, built := extractPathInto(&r, &scratch)
	if built {
		return string(scratch)
	}
	return p
}

// unquote strips the surrounding double quotes of a C string literal
// argument and decodes its escapes, handling strace's trailing "..."
// abbreviation marker.
func unquote(s string) (string, bool) {
	body, esc, ok := unquoteBody(s)
	if !ok {
		return "", false
	}
	if !esc {
		return body, true
	}
	return string(appendUnquoted(nil, body)), true
}
