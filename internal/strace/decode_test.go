package strace

import (
	"fmt"
	"testing"
	"time"
)

// decodeOf parses a single complete record line and returns the subject
// the semantic decoders extract from it. Failed calls decode too: the
// conversion drops them, but their argument shapes are the decoders'
// hostile inputs.
func decodeOf(t *testing.T, line string) string {
	t.Helper()
	recs := parseRecords(t, line)
	if len(recs) != 1 {
		t.Fatalf("%q: %d records, want 1", line, len(recs))
	}
	return extractPath(recs[0])
}

// TestDecodeRecordClasses drives every decoded syscall class through its
// success, errno and hostile-argument shapes and checks the subject
// the decoders extract — paths with dirfd resolution, spawn command
// lines with their argv tail, connection subjects per address family. A
// rename's subject is its source path.
func TestDecodeRecordClasses(t *testing.T) {
	tests := []struct {
		name string
		line string
		want string
	}{
		// --- file class: openat family ---
		{
			"openat success uses ret annotation",
			`1  10:00:00.000001 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 3</etc/passwd> <0.000008>`,
			"/etc/passwd",
		},
		{
			"openat errno joins dirfd",
			`1  10:00:00.000002 openat(5</data/run42>, "part.bin", O_RDONLY) = -1 ENOENT (No such file) <0.000004>`,
			"/data/run42/part.bin",
		},
		{
			"openat errno absolute ignores dirfd",
			`1  10:00:00.000003 openat(5</data>, "/abs/x.bin", O_RDONLY) = -1 EACCES (Permission denied) <0.000004>`,
			"/abs/x.bin",
		},
		{
			"openat hostile escaped arg",
			`1  10:00:00.000004 openat(AT_FDCWD, "/tmp/a\nb\357\203\277.bin", O_RDONLY) = -1 ENOENT (No such file) <0.000004>`,
			"/tmp/a\nb\xef\x83\xbf.bin",
		},
		{
			"unlinkat joins annotated AT_FDCWD",
			`1  10:00:00.000005 unlinkat(AT_FDCWD</home/u>, "stale.tmp", 0) = 0 <0.000004>`,
			"/home/u/stale.tmp",
		},
		// --- file class: simple path-first calls ---
		{
			"unlink success",
			`1  10:00:00.000006 unlink("/tmp/ior.lock") = 0 <0.000007>`,
			"/tmp/ior.lock",
		},
		{
			"truncate errno",
			`1  10:00:00.000007 truncate("/p/out.dat", 0) = -1 EROFS (Read-only file system) <0.000002>`,
			"/p/out.dat",
		},
		{
			"mkdir hostile delimiters",
			`1  10:00:00.000008 mkdir("/tmp/paren(pair)/bra{ce}", 0755) = 0 <0.000012>`,
			"/tmp/paren(pair)/bra{ce}",
		},
		// --- rename family: the source path is the subject ---
		{
			"rename carries both paths",
			`1  10:00:00.000009 rename("/tmp/ckpt.tmp", "/tmp/ckpt") = 0 <0.000008>`,
			"/tmp/ckpt.tmp",
		},
		{
			"renameat2 resolves both dirfds",
			`1  10:00:00.000010 renameat2(5</stage>, "new.dat", 6</data>, "cur.dat", RENAME_EXCHANGE) = 0 <0.000008>`,
			"/stage/new.dat",
		},
		// --- spawn class ---
		{
			"execve success with argv tail",
			`1  10:00:00.000011 execve("/usr/bin/tar", ["tar", "-czf", "out.tgz"], 0x7ffd00 /* 60 vars */) = 0 <0.000200>`,
			"/usr/bin/tar -czf out.tgz",
		},
		{
			"execve errno keeps subject",
			`1  10:00:00.000012 execve("/usr/bin/gone", ["gone"], 0x7ffd00 /* 8 vars */) = -1 ENOENT (No such file) <0.000020>`,
			"/usr/bin/gone",
		},
		{
			"execve hostile escaped argv",
			`1  10:00:00.000013 execve("/bin/sh", ["sh", "-c", "echo \"a b\"\n"], 0x7ffd00 /* 2 vars */) = 0 <0.000100>`,
			"/bin/sh -c echo \"a b\"\n",
		},
		{
			"execveat resolves dirfd",
			`1  10:00:00.000014 execveat(5</opt/tools>, "run.sh", ["run.sh"], 0x7ffd00 /* 4 vars */, 0) = 0 <0.000100>`,
			"/opt/tools/run.sh",
		},
		// --- connect class ---
		{
			"connect AF_INET",
			`1  10:00:00.000015 connect(3<socket:[12345]>, {sa_family=AF_INET, sin_port=htons(443), sin_addr=inet_addr("10.0.0.7")}, 16) = 0 <0.000100>`,
			"10.0.0.7:443",
		},
		{
			"connect AF_INET errno still decodes",
			`1  10:00:00.000016 connect(3<socket:[12345]>, {sa_family=AF_INET, sin_port=htons(80), sin_addr=inet_addr("1.2.3.4")}, 16) = -1 EINPROGRESS (Operation now in progress) <0.000050>`,
			"1.2.3.4:80",
		},
		{
			"connect AF_INET6",
			`1  10:00:00.000017 connect(3<socket:[999]>, {sa_family=AF_INET6, sin6_port=htons(8080), sin6_flowinfo=htonl(0), inet_pton(AF_INET6, "2001:db8::1", &sin6_addr), sin6_scope_id=0}, 28) = 0 <0.000100>`,
			"[2001:db8::1]:8080",
		},
		{
			"connect AF_UNIX",
			`1  10:00:00.000018 connect(4<socket:[777]>, {sa_family=AF_UNIX, sun_path="/run/docker.sock"}, 110) = 0 <0.000030>`,
			"/run/docker.sock",
		},
		{
			"connect abstract AF_UNIX",
			`1  10:00:00.000019 connect(4<socket:[778]>, {sa_family=AF_UNIX, sun_path=@"dbus-session"}, 110) = 0 <0.000030>`,
			"@dbus-session",
		},
		{
			"connect condensed dialect",
			`1  10:00:00.000020 connect(3<socket:[1]>, {Family: AF_INET, Addr: 8.8.8.8, Port: 53}, 16) = 0 <0.000030>`,
			"8.8.8.8:53",
		},
		{
			"connect hostile sockaddr falls back to fd annotation",
			`1  10:00:00.000021 connect(3<socket:[424242]>, {garbage, no family}, 16) = -1 EINVAL (Invalid argument) <0.000030>`,
			"socket:[424242]",
		},
		// --- undecodable ---
		{
			"no subject at all",
			`1  10:00:00.000022 brk(NULL) = 0x55d3a0 <0.000002>`,
			"",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := decodeOf(t, tc.line); got != tc.want {
				t.Errorf("subject = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestDecodeUnfinishedResumed: subjects must survive the
// unfinished/resumed merge — the argument struct sits in the unfinished
// half, the return in the resumed half.
func TestDecodeUnfinishedResumed(t *testing.T) {
	recs := parseRecords(t,
		`7  10:00:00.000001 connect(3<socket:[5]>, {sa_family=AF_INET, sin_port=htons(443), sin_addr=inet_addr("10.1.2.3")}, 16 <unfinished ...>`,
		`8  10:00:00.000002 execve("/usr/bin/env", ["env"], 0x7ffd00 /* 3 vars */ <unfinished ...>`,
		`7  10:00:00.000400 <... connect resumed> ) = 0 <0.000399>`,
		`8  10:00:00.000500 <... execve resumed> ) = 0 <0.000498>`,
	)
	events, err := convertRecords(testID, recs, Options{Strict: true})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0].Call != "connect" || events[0].FP != "10.1.2.3:443" {
		t.Errorf("merged connect = %+v", events[0])
	}
	if events[1].Call != "execve" || events[1].FP != "/usr/bin/env" {
		t.Errorf("merged execve = %+v", events[1])
	}
}

// TestUnquoteEscapes is the regression test for the C-escape mangling
// bug: the old unquote dropped the backslash and kept the escape letter
// ("\n" became "n", "\357" became "357"), silently corrupting every
// escaped path. The full strace escape set must decode to the original
// bytes.
func TestUnquoteEscapes(t *testing.T) {
	tests := []struct{ in, want string }{
		{`"\n"`, "\n"},
		{`"\t"`, "\t"},
		{`"\r"`, "\r"},
		{`"\v\f\a\b"`, "\v\f\a\b"},
		{`"\357\203\277"`, "\xef\x83\xbf"}, // octal, the strace -x default for non-ASCII
		{`"\0"`, "\x00"},                   // short octal
		{`"\0778"`, "\x3f8"},               // octal stops at three digits
		{`"\x41\x42"`, "AB"},               // hex
		{`"\xg"`, "xg"},                    // malformed hex keeps the marker
		{`"\q"`, "q"},                      // unknown escape yields the escaped byte
		{`"\\"`, `\`},                      // escaped backslash
		{`"\""`, `"`},                      // escaped quote
		{`"a\nb\357c"`, "a\nb\xefc"},       // mixed literal and escaped bytes
		{`"é\U0001F642"`, "é\U0001F642"},   // Go %q forms round-trip too
	}
	for _, tc := range tests {
		got, ok := unquote(tc.in)
		if !ok || got != tc.want {
			t.Errorf("unquote(%s) = %q, %v; want %q", tc.in, got, ok, tc.want)
		}
	}
}

// TestUnquoteRoundTrip: for arbitrary byte strings, quoting with Go's %q
// (a superset dialect of strace's) and unquoting must reproduce the
// original bytes — the property the writer/parser round trip of escaped
// paths stands on.
func TestUnquoteRoundTrip(t *testing.T) {
	inputs := []string{
		"/tmp/a\nb.bin",
		"/tmp/\xef\x83\xbf/unié.dat",
		"col:\ttab\rret\x00nul",
		`back\slash "quoted"`,
		"\x01\x02\x7f\x80\xff",
	}
	for _, in := range inputs {
		q := fmt.Sprintf("%q", in)
		got, ok := unquote(q)
		if !ok || got != in {
			t.Errorf("unquote(%s) = %q, %v; want %q", q, got, ok, in)
		}
	}
}

// TestDirfdJoin is the regression test for the dirfd-join bugs: a dirfd
// annotation ending in "/" used to produce a doubled separator
// ("//part.bin"), and a relative path under an un-annotated dirfd used
// to be emitted bare, conflating the cwd-relative "x" with the absolute
// "/x" in every aggregate. Relative paths now carry the distinct "./"
// marker.
func TestDirfdJoin(t *testing.T) {
	tests := []struct{ line, want string }{
		{
			// Root-annotated dirfd must not double the separator.
			`1  10:00:00.000001 openat(5</>, "etc/passwd", O_RDONLY) = -1 ENOENT (No such file) <0.000004>`,
			"/etc/passwd",
		},
		{
			// Trailing-slash annotation must not double the separator.
			`1  10:00:00.000002 openat(5</data/>, "part.bin", O_RDONLY) = -1 ENOENT (No such file) <0.000004>`,
			"/data/part.bin",
		},
		{
			// Un-annotated numeric dirfd: cwd-relative, marked "./".
			`1  10:00:00.000003 openat(5, "rel.bin", O_RDONLY) = -1 ENOENT (No such file) <0.000004>`,
			"./rel.bin",
		},
		{
			// Bare AT_FDCWD (no -y annotation): same marker.
			`1  10:00:00.000004 openat(AT_FDCWD, "rel.bin", O_RDONLY) = -1 ENOENT (No such file) <0.000004>`,
			"./rel.bin",
		},
		{
			// AT_EMPTY_PATH: the subject is the dirfd annotation itself.
			`1  10:00:00.000005 openat(5</data/part.bin>, "", O_RDONLY) = -1 EINVAL (Invalid argument) <0.000004>`,
			"/data/part.bin",
		},
		{
			// unlinkat joins like openat.
			`1  10:00:00.000006 unlinkat(7</scratch/>, "old.tmp", 0) = 0 <0.000004>`,
			"/scratch/old.tmp",
		},
	}
	for _, tc := range tests {
		rec, err := parseLine(tc.line)
		if err != nil {
			t.Fatalf("parseLine(%q): %v", tc.line, err)
		}
		if got := extractPath(rec); got != tc.want {
			t.Errorf("extractPath(%q) = %q, want %q", tc.line, got, tc.want)
		}
	}
}

// TestMidnightWrap is the regression test for the -tt timestamp wrap: a
// trace straddling midnight used to go non-monotonic (the 00:00:00
// record appeared ~24h before its predecessor), breaking durations,
// orderings and concurrency intervals. The converter now detects the
// wrap and keeps time flowing forward, including for straggler records
// strace emits slightly out of order across the boundary.
func TestMidnightWrap(t *testing.T) {
	recs := parseRecords(t,
		`1  23:59:59.900000 openat(AT_FDCWD, "/a", O_RDONLY) = 3</a> <0.000010>`,
		`1  00:00:00.100000 read(3</a>, ..., 64) = 64 <0.000010>`,
		`1  23:59:59.950000 write(4</b>, ..., 8) = 8 <0.000010>`, // straggler from before the wrap
		`1  00:00:00.200000 close(3</a>) = 0 <0.000010>`,
	)
	events, err := convertRecords(testID, recs, Options{Strict: true})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("events = %v", events)
	}
	day := 24 * time.Hour
	wants := []time.Duration{
		23*time.Hour + 59*time.Minute + 59*time.Second + 900*time.Millisecond,
		day + 100*time.Millisecond,
		23*time.Hour + 59*time.Minute + 59*time.Second + 950*time.Millisecond,
		day + 200*time.Millisecond,
	}
	for i, want := range wants {
		if events[i].Start != want {
			t.Errorf("event %d (%s) start = %v, want %v", i, events[i].Call, events[i].Start, want)
		}
	}
	// The wrapped trace is causally ordered: the post-midnight reads
	// come after the pre-midnight open.
	if events[1].Start < events[0].Start || events[3].Start < events[1].Start {
		t.Error("midnight wrap left the trace non-monotonic")
	}
}

// TestMidnightWrapEpochUntouched: epoch (-ttt) stamps never jump by half
// a day between adjacent records, so the wrap heuristic must leave them
// exactly as parsed.
func TestMidnightWrapEpochUntouched(t *testing.T) {
	recs := parseRecords(t,
		`1  1726160397.300539 openat(AT_FDCWD, "/a", O_RDONLY) = 3</a> <0.000010>`,
		`1  1726160397.400539 read(3</a>, ..., 64) = 64 <0.000010>`,
	)
	events, err := convertRecords(testID, recs, Options{Strict: true})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	want0 := time.Duration(1726160397)*time.Second + 300539*time.Microsecond
	if events[0].Start != want0 || events[1].Start != want0+100*time.Millisecond {
		t.Errorf("epoch stamps changed: %v, %v", events[0].Start, events[1].Start)
	}
}
