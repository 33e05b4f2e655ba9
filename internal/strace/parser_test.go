package strace

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stinspector/internal/iorsim"
	"stinspector/internal/trace"
)

func mustParse(t *testing.T, line string) record {
	t.Helper()
	rec, err := parseLine(line)
	if err != nil {
		t.Fatalf("parseLine(%q): %v", line, err)
	}
	return rec
}

// The lines of Figure 2a of the paper.
func TestParseFig2aLines(t *testing.T) {
	rec := mustParse(t, `9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, ..., 832) = 832 <0.000203>`)
	if !rec.HasPID || rec.PID != 9054 {
		t.Errorf("pid = %d (has=%v), want 9054", rec.PID, rec.HasPID)
	}
	if rec.Kind != kindSyscall || rec.Call != "read" {
		t.Errorf("kind/call = %v/%s", rec.Kind, rec.Call)
	}
	wantTS := 8*time.Hour + 55*time.Minute + 54*time.Second + 153994*time.Microsecond
	if rec.Time != wantTS {
		t.Errorf("time = %v, want %v", rec.Time, wantTS)
	}
	if p, ok := rec.firstArgPath(); !ok || p != "/usr/lib/x86_64-linux-gnu/libselinux.so.1" {
		t.Errorf("first-arg path = %q (%v)", p, ok)
	}
	if !rec.RetOK || rec.RetInt != 832 {
		t.Errorf("ret = %d (ok=%v), want 832", rec.RetInt, rec.RetOK)
	}
	if !rec.HasDur || rec.Dur != 203*time.Microsecond {
		t.Errorf("dur = %v (has=%v), want 203µs", rec.Dur, rec.HasDur)
	}

	// Zero-byte read at EOF with an empty string content argument.
	rec = mustParse(t, `9054  08:55:54.163049 read(3</proc/filesystems>, "", 1024) = 0 <0.000040>`)
	if rec.RetInt != 0 || !rec.RetOK {
		t.Errorf("EOF read ret = %d (ok=%v)", rec.RetInt, rec.RetOK)
	}

	rec = mustParse(t, `9054  08:55:54.176260 write(1</dev/pts/7>, ..., 50) = 50 <0.000111>`)
	if p, _ := rec.firstArgPath(); p != "/dev/pts/7" {
		t.Errorf("write path = %q", p)
	}
}

// The unfinished/resumed pair of Figure 2c.
func TestParseFig2cUnfinishedResumed(t *testing.T) {
	u := mustParse(t, `77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, <unfinished ...>`)
	if u.Kind != kindUnfinished || u.Call != "read" {
		t.Fatalf("kind/call = %v/%s", u.Kind, u.Call)
	}
	if u.HasDur {
		t.Errorf("unfinished record should carry no duration")
	}
	if p, ok := u.firstArgPath(); !ok || p != "/usr/lib/x86_64-linux-gnu/libselinux.so.1" {
		t.Errorf("unfinished path = %q (%v)", p, ok)
	}

	r := mustParse(t, `77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>`)
	if r.Kind != kindResumed || r.Call != "read" {
		t.Fatalf("resumed kind/call = %v/%s", r.Kind, r.Call)
	}
	if r.RetInt != 404 || !r.RetOK {
		t.Errorf("resumed ret = %d (ok=%v), want 404", r.RetInt, r.RetOK)
	}
	if r.Dur != 223*time.Microsecond {
		t.Errorf("resumed dur = %v", r.Dur)
	}
}

func TestParseOpenat(t *testing.T) {
	rec := mustParse(t, `9173  08:56:04.754100 openat(AT_FDCWD, "/etc/nsswitch.conf", O_RDONLY|O_CLOEXEC) = 4</etc/nsswitch.conf> <0.000031>`)
	if rec.Call != "openat" || rec.Kind != kindSyscall {
		t.Fatalf("call = %s", rec.Call)
	}
	if rec.RetPath != "/etc/nsswitch.conf" {
		t.Errorf("ret path = %q", rec.RetPath)
	}
	if rec.RetInt != 4 || !rec.RetOK {
		t.Errorf("ret fd = %d (ok=%v)", rec.RetInt, rec.RetOK)
	}
	// Failed openat: no fd annotation, errno set.
	rec = mustParse(t, `9173  08:56:04.754200 openat(AT_FDCWD, "/nonexistent", O_RDONLY) = -1 ENOENT (No such file or directory) <0.000008>`)
	if rec.Errno != "ENOENT" {
		t.Errorf("failed openat: errno = %q", rec.Errno)
	}
	if rec.RetInt != -1 || !rec.RetOK {
		t.Errorf("failed openat ret = %d (ok=%v)", rec.RetInt, rec.RetOK)
	}
}

func TestParseLseekAndPwrite(t *testing.T) {
	rec := mustParse(t, `100  10:00:00.000001 lseek(5</scratch/ssf/test>, 16777216, SEEK_SET) = 16777216 <0.000004>`)
	if rec.Call != "lseek" {
		t.Fatalf("call = %q", rec.Call)
	}
	if p, ok := rec.firstArgPath(); !ok || p != "/scratch/ssf/test" {
		t.Errorf("lseek path = %q (%v)", p, ok)
	}
	if rec.RetInt != 16777216 {
		t.Errorf("lseek ret = %d", rec.RetInt)
	}
	rec = mustParse(t, `100  10:00:00.000002 pwrite64(5</scratch/ssf/test>, ..., 1048576, 16777216) = 1048576 <0.000301>`)
	if rec.Call != "pwrite64" || rec.RetInt != 1048576 {
		t.Errorf("pwrite64: call=%q ret=%d", rec.Call, rec.RetInt)
	}
}

func TestParseERESTARTSYS(t *testing.T) {
	rec := mustParse(t, `100  10:00:00.000001 read(3</f>, ..., 4096) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.010000>`)
	if rec.Errno != "ERESTARTSYS" {
		t.Errorf("ERESTARTSYS not flagged as interrupted: errno=%q", rec.Errno)
	}
}

func TestParseExitAndSignal(t *testing.T) {
	rec := mustParse(t, `9054  08:55:54.180000 +++ exited with 0 +++`)
	if rec.Kind != kindExit || rec.ExitStatus != 0 {
		t.Errorf("exit: kind=%v status=%d", rec.Kind, rec.ExitStatus)
	}
	rec = mustParse(t, `9054  08:55:54.200000 +++ exited with 3 +++`)
	if rec.ExitStatus != 3 {
		t.Errorf("exit status = %d, want 3", rec.ExitStatus)
	}
	rec = mustParse(t, `9054  08:55:54.190000 --- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED, si_pid=9060} ---`)
	if rec.Kind != kindSignal || rec.Call != "SIGCHLD" {
		t.Errorf("signal: kind=%v name=%q", rec.Kind, rec.Call)
	}
	rec = mustParse(t, `9054  08:55:54.195000 +++ killed by SIGKILL +++`)
	if rec.Kind != kindExit || rec.Call != "SIGKILL" {
		t.Errorf("killed: kind=%v sig=%q", rec.Kind, rec.Call)
	}
}

func TestParseWithoutPIDColumn(t *testing.T) {
	rec := mustParse(t, `08:55:54.153994 read(3</etc/passwd>, ..., 832) = 832 <0.000203>`)
	if rec.HasPID {
		t.Errorf("line without pid column parsed as having one: pid=%d", rec.PID)
	}
	if rec.Call != "read" || rec.RetInt != 832 {
		t.Errorf("call/ret = %s/%d", rec.Call, rec.RetInt)
	}
}

func TestParseEpochTimestamps(t *testing.T) {
	rec := mustParse(t, `42  1700000000.123456 write(1</dev/pts/0>, ..., 5) = 5 <0.000010>`)
	want := time.Duration(1700000000.123456 * float64(time.Second))
	if d := rec.Time - want; d > time.Microsecond || d < -time.Microsecond {
		t.Errorf("epoch time = %v, want ~%v", rec.Time, want)
	}
}

func TestParseQuotedCommasAndParens(t *testing.T) {
	// Content strings can contain commas, parens, angle brackets and
	// escaped quotes; none of them may confuse the splitter.
	rec := mustParse(t, `7  09:00:00.000001 write(1</dev/pts/7>, "a,b(c)<d>\"e", 12) = 12 <0.000002>`)
	if len(rec.Args) != 3 {
		t.Fatalf("args = %d (%q), want 3", len(rec.Args), rec.Args)
	}
	if rec.Args[1] != `"a,b(c)<d>\"e"` {
		t.Errorf("quoted arg = %q", rec.Args[1])
	}
	if rec.RetInt != 12 {
		t.Errorf("ret = %d", rec.RetInt)
	}
}

func TestParseStructArgsWithEquals(t *testing.T) {
	// '=' inside braces must not be mistaken for the return separator.
	rec := mustParse(t, `7  09:00:00.000001 fstat(3</etc/passwd>, {st_mode=S_IFREG|0644, st_size=1612}) = 0 <0.000003>`)
	if rec.Call != "fstat" || rec.RetInt != 0 || !rec.RetOK {
		t.Errorf("fstat parse: call=%q ret=%d ok=%v", rec.Call, rec.RetInt, rec.RetOK)
	}
	if len(rec.Args) != 2 {
		t.Errorf("fstat args = %q", rec.Args)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"garbage",
		"9054  notatime read(3</f>) = 0 <0.1>",
		"9054  08:55:54.153994 read(3</f>, ..., 832)", // no return
		"9054  08:55:54.153994 +++ wat +++",
	}
	for _, line := range bad {
		if _, err := parseLine(line); err == nil {
			t.Errorf("parseLine(%q) succeeded, want error", line)
		}
	}
}

func TestParseTimestamp(t *testing.T) {
	good := map[string]time.Duration{
		"00:00:00.000000": 0,
		"08:55:54.153994": 8*time.Hour + 55*time.Minute + 54*time.Second + 153994*time.Microsecond,
		"23:59:59.999999": 24*time.Hour - time.Microsecond,
	}
	for s, want := range good {
		got, err := parseTimestamp(s)
		if err != nil || got != want {
			t.Errorf("parseTimestamp(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"24:00:00.0", "aa:bb:cc.dd", "-5", "12:61:00.0", ""} {
		if _, err := parseTimestamp(s); err == nil {
			t.Errorf("parseTimestamp(%q) succeeded, want error", s)
		}
	}
}

func TestSplitFDPath(t *testing.T) {
	fd, p, ok := splitFDPath("3</usr/lib/libc.so.6>")
	if !ok || fd != 3 || p != "/usr/lib/libc.so.6" {
		t.Errorf("splitFDPath = %d, %q, %v", fd, p, ok)
	}
	for _, s := range []string{"3", "</f>", "x</f>", "3</f"} {
		if _, _, ok := splitFDPath(s); ok {
			t.Errorf("splitFDPath(%q) = ok, want not ok", s)
		}
	}
}

func TestSplitArgs(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a, b, c", []string{"a", "b", "c"}},
		{`3</a,b>, "x,y", 7`, []string{"3</a,b>", `"x,y"`, "7"}},
		{"{a=1, b=2}, [1, 2], 3", []string{"{a=1, b=2}", "[1, 2]", "3"}},
	}
	for _, tc := range tests {
		got := splitArgs(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitArgs(%q) = %q, want %q", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitArgs(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestReadRecordsLenient(t *testing.T) {
	input := strings.Join([]string{
		`9054  08:55:54.153994 read(3</f>, ..., 832) = 832 <0.000203>`,
		`this line is garbage`,
		`9054  08:55:54.176260 write(1</dev/pts/7>, ..., 50) = 50 <0.000111>`,
	}, "\n")
	recs, skipped, err := readRecords(strings.NewReader(input), true)
	if err != nil {
		t.Fatalf("lenient readRecords: %v", err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Errorf("records=%d skipped=%d, want 2/1", len(recs), skipped)
	}
	if recs[1].Line != 3 {
		t.Errorf("line number = %d, want 3", recs[1].Line)
	}
	if _, _, err := readRecords(strings.NewReader(input), false); err == nil {
		t.Errorf("strict readRecords accepted garbage")
	}
}

// BenchmarkParseLine: single strace record parse.
func BenchmarkParseLine(b *testing.B) {
	line := `9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, ..., 832) = 832 <0.000203>`
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if _, err := parseLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// iorBench holds the rendered input of BenchmarkParseCaseIOR, built
// once per process.
var iorBench struct {
	once   sync.Once
	ids    []trace.CaseID
	texts  []string
	events int
	bytes  int64
	err    error
}

// BenchmarkParseCaseIOR parses an in-memory iorsim trace pair — ssf and
// fpp, 96 ranks on 2 hosts, 16 segments of 16 MiB blocks in 256 KiB
// transfers, startup preamble included: the ior_compare workload's 192
// files — with ParseCase, one file after another on one goroutine. It
// reports the parse layer's ns/event and allocs/event.
func BenchmarkParseCaseIOR(b *testing.B) {
	in := &iorBench
	in.once.Do(func() {
		for i, cid := range []string{"ssf", "fpp"} {
			res, err := iorsim.Run(iorsim.Config{
				CID: cid, Ranks: 96, Hosts: 2,
				TransferSize: 256 << 10, BlockSize: 16 << 20, Segments: 16,
				Write: true, Read: true, FilePerProc: cid == "fpp", Preamble: true,
				Seed: 1 + int64(i),
			})
			if err != nil {
				in.err = err
				return
			}
			for _, c := range res.Log.Cases() {
				var buf bytes.Buffer
				if err := NewWriter(&buf).WriteCase(c); err != nil {
					in.err = err
					return
				}
				in.ids = append(in.ids, c.ID)
				in.texts = append(in.texts, buf.String())
				in.events += c.Len()
				in.bytes += int64(buf.Len())
			}
		}
	})
	if in.err != nil {
		b.Fatal(in.err)
	}
	b.SetBytes(in.bytes)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, text := range in.texts {
			if _, err := ParseCase(in.ids[j], strings.NewReader(text), Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(b.N) * float64(in.events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/event")
}
