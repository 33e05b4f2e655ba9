package strace

import (
	"bytes"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"stinspector/internal/behavior"
	"stinspector/internal/trace"
)

// fuzzSeeds are realistic strace fragments covering the parser's
// branches: plain calls, -f PID columns, unfinished/resumed pairs,
// signals, exits, failed and interrupted calls, and junk.
var fuzzSeeds = []string{
	`9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, ..., 832) = 832 <0.000203>`,
	`08:55:54.153994 openat(AT_FDCWD, "/etc/ld.so.cache", O_RDONLY|O_CLOEXEC) = 3</etc/ld.so.cache> <0.000042>`,
	"9054  08:55:54.100000 write(1</dev/pts/0>, \"x\", 1 <unfinished ...>\n" +
		"9055  08:55:54.100100 read(4</tmp/a>, ..., 16) = 16 <0.000010>\n" +
		"9054  08:55:54.100200 <... write resumed>) = 1 <0.000200>",
	`9054  08:55:54.200000 --- SIGCHLD {si_signo=SIGCHLD} ---`,
	`9054  08:55:54.300000 +++ exited with 0 +++`,
	`9054  08:55:54.400000 read(5</tmp/x>, ..., 64) = -1 EAGAIN (Resource temporarily unavailable) <0.000015>`,
	`9054  08:55:54.500000 read(5</tmp/x>, ..., 64) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.000015>`,
	`not strace output at all`,
	``,
}

// FuzzParseCase: arbitrary trace text must never panic, in any option
// mode, on the batch or the follow path, and whenever a case is
// produced it must satisfy the event-model invariants (sorted by start
// time, stamped with the case identity). Where the input is split into
// reads must not change the result.
func FuzzParseCase(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	// A writer-dialect seed: a synthetic case rendered back to strace
	// text, so the fuzzer starts from the full round-trip grammar.
	var buf bytes.Buffer
	c := trace.NewCase(trace.CaseID{CID: "seed", Host: "h", RID: 7}, []trace.Event{
		{PID: 7, Call: "openat", Start: 0, Dur: 1000, FP: "/tmp/f"},
		{PID: 7, Call: "read", Start: 2000, Dur: 1500, FP: "/tmp/f", Size: 64},
		{PID: 7, Call: "close", Start: 5000, Dur: 100, FP: "/tmp/f"},
	})
	if err := NewWriter(&buf).WriteCase(c); err == nil {
		f.Add(buf.String())
	}

	// CRLF line endings, including an unterminated final "\r".
	f.Add(strings.Join(fuzzSeeds[:3], "\r\n") + "\r")
	// Records straddling the first two 32 KiB read boundaries.
	line := fuzzSeeds[0] + "\n"
	f.Add(strings.Repeat(line, 2*readChunk/len(line)+2))

	f.Fuzz(checkParseCase)
}

// TestParseCaseOverCapLine runs FuzzParseCase's checks on a line just
// over the 4 MiB cap between two valid records: every path skips it,
// or names it under Strict. It is a plain test, not a fuzz seed, so the
// mutator never spends its time on 4 MiB inputs.
func TestParseCaseOverCapLine(t *testing.T) {
	checkParseCase(t, fuzzSeeds[0]+"\n"+strings.Repeat("x", maxLineBytes+1)+"\n"+fuzzSeeds[1]+"\n")
}

// checkParseCase is FuzzParseCase's body: every line parses as the
// replaced line parser parsed it (parser_equiv_test.go), data parses
// without panic in every option mode, on the batch and the follow
// path, any case it yields satisfies the event-model invariants, and
// where the input is split into reads does not change the result.
func checkParseCase(t *testing.T, data string) {
	checkLinesEquiv(t, data)
	id := trace.CaseID{CID: "fuzz", Host: "h", RID: 1}
	for _, opts := range []Options{
		{},
		{Strict: true},
	} {
		want, wantErr := ParseCase(id, strings.NewReader(data), opts)
		checkFuzzCase(t, "ParseCase", opts, id, want, wantErr)
		// Chunking never changes the result: the same bytes read
		// one at a time or in input-derived chunk sizes parse
		// identically, and so does the follow path once the final
		// line is terminated.
		for _, r := range []struct {
			path string
			read func() (*trace.Case, error)
		}{
			{"ParseCase/OneByteReader", func() (*trace.Case, error) {
				return ParseCase(id, iotest.OneByteReader(strings.NewReader(data)), opts)
			}},
			{"ParseCase/chunked", func() (*trace.Case, error) {
				return ParseCase(id, &chunkReader{data: data}, opts)
			}},
			{"FollowReader/terminated", func() (*trace.Case, error) {
				c, _, err := FollowReader(id, strings.NewReader(data+"\n"), opts)
				return c, err
			}},
		} {
			c, err := r.read()
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s opts %+v: error %v, ParseCase error %v", r.path, opts, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(c.Events, want.Events) {
				t.Fatalf("%s opts %+v: %d events differ from ParseCase's %d", r.path, opts, c.Len(), want.Len())
			}
		}
		c, _, err := FollowReader(id, strings.NewReader(data), opts)
		checkFuzzCase(t, "FollowReader", opts, id, c, err)
	}
}

// chunkReader yields data in chunks whose sizes derive from the data
// itself, so the fuzzer moves every read boundary.
type chunkReader struct {
	data string
	off  int
	n    int // reads so far
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	size := 1 + int(r.data[r.n%len(r.data)])*257%(2*readChunk)
	r.n++
	n := copy(p[:min(len(p), size)], r.data[r.off:])
	r.off += n
	return n, nil
}

// checkFuzzCase asserts the event-model invariants of a successfully
// parsed case.
func checkFuzzCase(t *testing.T, path string, opts Options, id trace.CaseID, c *trace.Case, err error) {
	t.Helper()
	if err != nil {
		return
	}
	if c == nil {
		t.Fatalf("%s opts %+v: nil case with nil error", path, opts)
	}
	if !c.Sorted() {
		t.Fatalf("%s opts %+v: case not sorted by start time", path, opts)
	}
	if c.ID != id {
		t.Fatalf("%s opts %+v: case identity %s, want %s", path, opts, c.ID, id)
	}
}

// behaviorFuzzSeeds exercise the semantic decoders: spawn argv arrays,
// sockaddr struct literals in both dialects, dirfd joins and
// escape-bearing arguments.
var behaviorFuzzSeeds = []string{
	`1  10:00:00.000001 execve("/usr/bin/tar", ["tar", "-czf", "out.tgz"], 0x7ffd00 /* 60 vars */) = 0 <0.000200>`,
	`1  10:00:00.000002 connect(3<socket:[12345]>, {sa_family=AF_INET, sin_port=htons(443), sin_addr=inet_addr("10.0.0.7")}, 16) = 0 <0.000100>`,
	`1  10:00:00.000003 connect(3<socket:[999]>, {sa_family=AF_INET6, sin6_port=htons(8080), sin6_flowinfo=htonl(0), inet_pton(AF_INET6, "2001:db8::1", &sin6_addr), sin6_scope_id=0}, 28) = 0 <0.000100>`,
	`1  10:00:00.000004 connect(4<socket:[777]>, {sa_family=AF_UNIX, sun_path=@"dbus-session"}, 110) = -1 ECONNREFUSED (Connection refused) <0.000030>`,
	`1  10:00:00.000005 connect(3<socket:[1]>, {Family: AF_INET, Addr: 8.8.8.8, Port: 53}, 16) = 0 <0.000030>`,
	`1  10:00:00.000006 openat(5</data/>, "part\n\357\203\277.bin", O_RDONLY) = -1 ENOENT (No such file) <0.000004>`,
	`1  10:00:00.000007 renameat2(5</stage>, "new.dat", 6</data>, "cur.dat", RENAME_EXCHANGE) = 0 <0.000008>`,
	`1  10:00:00.000008 unlinkat(AT_FDCWD</home/u>, "stale.tmp", 0) = 0 <0.000004>`,
	`1  10:00:00.000009 execveat(5</opt/tools>, "run.sh", ["run.sh", "--x=\"y\""], 0x7ffd00 /* 4 vars */, 0) = 0 <0.000100>`,
	`1  10:00:00.000010 connect(3, {sa_family=AF_INET, sin_port=htons(`,
}

// FuzzBehaviorDecode: the semantic decoding layer — extractPathInto over
// every framed record, behavior-profile folding over every parsed case —
// must never panic on arbitrary trace text, and its invariants must hold:
// a subject built into the scratch buffer is never empty, a spawn with a
// program path always yields a subject, unquote inverts Go quoting, and
// a profile survives its snapshot round trip.
func FuzzBehaviorDecode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range behaviorFuzzSeeds {
		f.Add(s)
	}

	id := trace.CaseID{CID: "fuzz", Host: "h", RID: 1}
	f.Fuzz(func(t *testing.T, data string) {
		// unquote must invert quoting for arbitrary byte strings.
		if got, ok := unquote(strconv.Quote(data)); !ok || got != data {
			t.Fatalf("unquote(Quote(%q)) = %q, %v", data, got, ok)
		}
		recs, _, err := readRecords(strings.NewReader(data), true)
		if err != nil {
			return
		}
		var scratch []byte
		for i := range recs {
			r := &recs[i]
			p, built := extractPathInto(r, &scratch)
			if built {
				if len(scratch) == 0 {
					t.Fatalf("empty subject built from %+v", r)
				}
				p = string(scratch)
			}
			pathIdx := -1
			switch r.Call {
			case "execve":
				pathIdx = 0
			case "execveat":
				pathIdx = 1
			}
			if pathIdx >= 0 && len(r.Args) > pathIdx && p == "" {
				if body, _, ok := unquoteBody(r.Args[pathIdx]); ok && body != "" {
					t.Fatalf("spawn of %q decoded to an empty subject from %+v", body, r)
				}
			}
		}
		c, err := ParseCase(id, strings.NewReader(data), Options{})
		if err != nil || len(c.Events) == 0 {
			return
		}
		p := behavior.New()
		p.AddCase(c)
		// The snapshot section round-trips the profile.
		q, err := behavior.DecodeSnapshot(p.EncodeSnapshot())
		if err != nil || q.RenderText() != p.RenderText() {
			t.Fatalf("snapshot round trip changed the profile (err %v)", err)
		}
		// Merging into an empty profile is the identity.
		m := behavior.New()
		m.Merge(p)
		if m.RenderText() != p.RenderText() {
			t.Fatal("merge into empty profile changed the rendering")
		}
	})
}
