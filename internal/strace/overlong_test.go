package strace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"stinspector/internal/faultfs"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// overlongBytes is the size of the hostile newline-free line: 16x the
// 4 MiB line cap, the body a client can POST to a session's ingest
// endpoint.
const overlongBytes = 64 << 20

// Bounds for consuming one overlongBytes line. Before the framing fix
// the follow paths rescanned the whole buffered line per 32 KiB chunk
// and buffered it without limit: 48.7 s and 383 MiB for this input.
const (
	overlongMaxAlloc = 16 << 20
	overlongMaxWall  = 5 * time.Second
)

// repeatReader yields n bytes of 'x' without holding them in memory.
type repeatReader struct{ n int64 }

var xs = bytes.Repeat([]byte{'x'}, 32*1024)

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	n := 0
	for n < len(p) {
		n += copy(p[n:], xs)
	}
	r.n -= int64(n)
	return n, nil
}

// overlongBody is a valid trace split after its third line, with one
// overlongBytes line between the halves (terminated by a newline when
// terminated is true, in which case the suffix follows it). want is the
// batch parse of the two halves alone; line is the 1-based number of
// the over-long line.
func overlongBody(t *testing.T, terminated bool) (id trace.CaseID, body io.Reader, want *trace.Case, line int) {
	t.Helper()
	files, _ := renderCases(t, synth.Log("ol", 1, 12, 5))
	var content []byte
	for name, c := range files {
		id, content = mustCaseID(t, name), c
	}
	cut := 0
	for i := 0; i < 3; i++ {
		cut += bytes.IndexByte(content[cut:], '\n') + 1
	}
	prefix, suffix := content[:cut], content[cut:]
	if !terminated {
		suffix = nil
	}
	want, err := ParseCase(id, bytes.NewReader(append(append([]byte(nil), prefix...), suffix...)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts := []io.Reader{bytes.NewReader(prefix), &repeatReader{n: overlongBytes}}
	if terminated {
		parts = append(parts, strings.NewReader("\n"), bytes.NewReader(suffix))
	}
	return id, io.MultiReader(parts...), want, 4
}

func mustCaseID(t *testing.T, name string) trace.CaseID {
	t.Helper()
	id, err := trace.ParseCaseID(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// bounded runs f and fails if it allocates or takes more than the
// over-long-line bounds allow.
func bounded(t *testing.T, what string, f func()) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%s: %v, %.1f MiB allocated", what, wall.Round(time.Millisecond), float64(alloc)/(1<<20))
	if alloc > overlongMaxAlloc {
		t.Errorf("%s allocated %d bytes, want <= %d", what, alloc, overlongMaxAlloc)
	}
	if wall > overlongMaxWall {
		t.Errorf("%s took %v, want <= %v", what, wall, overlongMaxWall)
	}
}

// TestFollowReaderOverlongLine: a line over the 4 MiB cap is skipped
// and counted like an unparseable line — the records around it parse
// unchanged — or, under Strict, is a *ParseError naming its line. A
// 64 MiB body never buffers the line whole. The batch path runs the
// same framer and agrees.
func TestFollowReaderOverlongLine(t *testing.T) {
	for _, terminated := range []bool{true, false} {
		id, body, want, _ := overlongBody(t, terminated)
		var (
			c       *trace.Case
			dropped int
			err     error
		)
		bounded(t, "FollowReader", func() { c, dropped, err = FollowReader(id, body, Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 1 {
			t.Errorf("terminated=%v: dropped = %d, want 1 (the over-long line)", terminated, dropped)
		}
		if !reflect.DeepEqual(c.Events, want.Events) {
			t.Errorf("terminated=%v: %d events, want the %d around the over-long line", terminated, len(c.Events), len(want.Events))
		}

		id, body, _, line := overlongBody(t, terminated)
		bounded(t, "strict FollowReader", func() { _, _, err = FollowReader(id, body, Options{Strict: true}) })
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != line {
			t.Errorf("terminated=%v: strict error = %v, want a *ParseError at line %d", terminated, err, line)
		}

		// The batch path runs the same framer: lenient, it skips the
		// line within the same bounds; strict, it names it.
		id, body, _, _ = overlongBody(t, terminated)
		bounded(t, "ParseCase", func() { c, err = ParseCase(id, body, Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Events, want.Events) {
			t.Errorf("terminated=%v: ParseCase: %d events, want the %d around the over-long line", terminated, len(c.Events), len(want.Events))
		}
		id, body, _, line = overlongBody(t, terminated)
		_, err = ParseCase(id, body, Options{Strict: true})
		if !errors.As(err, &pe) || pe.Line != line {
			t.Errorf("terminated=%v: strict ParseCase error = %v, want a *ParseError at line %d", terminated, err, line)
		}
	}
}

// TestTailerOverlongLine: the same over-long line inside a file tailed
// through faultfs is counted as one parse skip, surfaces once through
// caseSink.Fail under Strict, and the case around it is emitted intact —
// with transient read failures (time and memory bounded) and with
// short reads that move every chunk boundary. Short reads are not
// memory-bounded: each read costs the loop's two stats, whatever the
// line.
func TestTailerOverlongLine(t *testing.T) {
	dir := t.TempDir()
	id, body, want, line := overlongBody(t, true)
	f, err := os.Create(filepath.Join(dir, id.FileName()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(f, body); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, faults := range []faultfs.Faults{{ReadFailEveryN: 97}, {ShortReadMax: 16 << 10}} {
		sink := &collectSink{}
		tailer := newTailer(faultDir{fs: faultfs.New(dir, 3, faults)}, sink, fastOpts())
		var got []*trace.Case
		run := func() {
			tailer.Start()
			got = waitCases(t, sink, 1, 20*time.Second)
		}
		if faults.ShortReadMax == 0 {
			bounded(t, "Tailer", run)
		} else {
			run()
		}
		tailer.Stop()

		if !reflect.DeepEqual(got[0].Events, want.Events) {
			t.Errorf("%+v: %d events, want the %d around the over-long line", faults, len(got[0].Events), len(want.Events))
		}
		if st := tailer.Stats(); st.ParseSkips != 1 || st.PartialDrops != 0 {
			t.Errorf("%+v: stats %+v, want exactly one parse skip and no partial drop", faults, st)
		}
		_, errs := sink.snapshot()
		var pe *ParseError
		if len(errs) != 1 || !errors.As(errs[0], &pe) || pe.Line != line {
			t.Errorf("%+v: sink errors %v, want one *ParseError at line %d", faults, errs, line)
		}
	}
}

// TestLineCapRule pins the one line-cap rule every path shares: a line
// of up to maxLineBytes bytes (newline excluded) parses, a longer one
// is skipped and counted — or, under Strict, is a *ParseError at its
// line — and the record after it parses either way. Batch (ParseCase
// and readRecords), FollowReader and a Tailer must agree on events and
// skips.
func TestLineCapRule(t *testing.T) {
	const (
		head = "9054  08:55:54.100000 write(1</dev/pts/0>, \""
		tail = "\", 8) = 8 <0.000020>"
		next = "9054  08:55:54.200000 read(3</tmp/in>, ..., 64) = 64 <0.000010>\n"
	)
	id := trace.CaseID{CID: "cap", Host: "h", RID: 1}
	for _, size := range []int{maxLineBytes - 1, maxLineBytes, maxLineBytes + 1} {
		padded := head + strings.Repeat("x", size-len(head)-len(tail)) + tail
		if len(padded) != size {
			t.Fatalf("padded line is %d bytes, want %d", len(padded), size)
		}
		data := padded + "\n" + next
		wantSkips, wantEvents := 0, 2
		if size > maxLineBytes {
			wantSkips, wantEvents = 1, 1
		}
		strictErr := func(path string, err error) {
			t.Helper()
			var pe *ParseError
			switch {
			case wantSkips == 0 && err != nil:
				t.Errorf("size %d: strict %s: %v", size, path, err)
			case wantSkips == 1 && (!errors.As(err, &pe) || pe.Line != 1):
				t.Errorf("size %d: strict %s error = %v, want a *ParseError at line 1", size, path, err)
			}
		}

		want, err := ParseCase(id, strings.NewReader(data), Options{})
		if err != nil {
			t.Fatalf("size %d: ParseCase: %v", size, err)
		}
		if want.Len() != wantEvents {
			t.Errorf("size %d: ParseCase: %d events, want %d", size, want.Len(), wantEvents)
		}
		if _, skips, err := readRecords(strings.NewReader(data), true); err != nil || skips != wantSkips {
			t.Errorf("size %d: readRecords skips = %d, %v; want %d", size, skips, err, wantSkips)
		}
		_, err = ParseCase(id, strings.NewReader(data), Options{Strict: true})
		strictErr("ParseCase", err)

		c, dropped, err := FollowReader(id, strings.NewReader(data), Options{})
		if err != nil || dropped != wantSkips || !reflect.DeepEqual(c.Events, want.Events) {
			t.Errorf("size %d: FollowReader: dropped %d, err %v, events equal %v; want %d dropped and the batch events",
				size, dropped, err, err == nil && reflect.DeepEqual(c.Events, want.Events), wantSkips)
		}
		_, _, err = FollowReader(id, strings.NewReader(data), Options{Strict: true})
		strictErr("FollowReader", err)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, id.FileName()), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		sink := &collectSink{}
		tailer := TailDir(dir, sink, fastOpts())
		tailer.Start()
		tailer.Drain()
		got, errs := sink.snapshot()
		if len(got) != 1 || !reflect.DeepEqual(got[0].Events, want.Events) {
			t.Errorf("size %d: Tailer emitted %d cases, want one with the batch events", size, len(got))
		}
		if st := tailer.Stats(); st.ParseSkips != uint64(wantSkips) || st.PartialDrops != 0 {
			t.Errorf("size %d: Tailer stats %+v, want %d parse skips and no partial drop", size, st, wantSkips)
		}
		if wantSkips == 0 && len(errs) != 0 {
			t.Errorf("size %d: Tailer sink errors %v, want none", size, errs)
		}
		if wantSkips == 1 {
			if len(errs) != 1 {
				t.Errorf("size %d: Tailer sink errors %v, want one", size, errs)
			} else {
				strictErr("Tailer", errs[0])
			}
		}
		tailer.Stop()
	}
}
