package strace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"stinspector/internal/trace"
)

// Writer renders events as strace-compatible text, one process's records
// per stream, reproducing the format of Figure 2. It is used by the
// workload simulators so that the full parser code path is exercised on
// synthetic traces, and by tests for round-trip verification.
type Writer struct {
	w io.Writer
	// fds assigns stable, realistic file descriptor numbers per path,
	// starting from 3 (0-2 are the standard streams; /dev/pts gets 1).
	fds    map[string]int
	nextFD int
	err    error
}

// NewWriter creates a writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, fds: make(map[string]int), nextFD: 3}
}

// fd returns the descriptor number used for a path.
func (sw *Writer) fd(path string) int {
	if isTerminal(path) {
		return 1
	}
	if fd, ok := sw.fds[path]; ok {
		return fd
	}
	fd := sw.nextFD
	sw.fds[path] = fd
	sw.nextFD++
	return fd
}

func isTerminal(path string) bool {
	return len(path) >= 9 && path[:9] == "/dev/pts/"
}

func (sw *Writer) printf(format string, args ...any) {
	if sw.err != nil {
		return
	}
	_, sw.err = fmt.Fprintf(sw.w, format, args...)
}

// writeEvent renders one event as a complete system-call record.
func (sw *Writer) writeEvent(e trace.Event) {
	ts := trace.FormatTimeOfDay(e.Start)
	dur := fmtSeconds(e.Dur)
	switch {
	case e.Call == "openat":
		sw.printf("%d  %s openat(AT_FDCWD, %q, O_RDWR|O_CREAT, 0644) = %d<%s> <%s>\n",
			e.PID, ts, e.FP, sw.fd(e.FP), e.FP, dur)
	case e.Call == "close":
		sw.printf("%d  %s close(%d<%s>) = 0 <%s>\n",
			e.PID, ts, sw.fd(e.FP), e.FP, dur)
	case e.Call == "lseek":
		sw.printf("%d  %s lseek(%d<%s>, 0, SEEK_SET) = 0 <%s>\n",
			e.PID, ts, sw.fd(e.FP), e.FP, dur)
	case e.Call == "fsync" || e.Call == "fdatasync":
		sw.printf("%d  %s %s(%d<%s>) = 0 <%s>\n",
			e.PID, ts, e.Call, sw.fd(e.FP), e.FP, dur)
	case e.Call == "unlink" || e.Call == "rmdir":
		sw.printf("%d  %s %s(%q) = 0 <%s>\n", e.PID, ts, e.Call, e.FP, dur)
	case e.Call == "unlinkat":
		sw.printf("%d  %s unlinkat(AT_FDCWD, %q, 0) = 0 <%s>\n", e.PID, ts, e.FP, dur)
	case e.Call == "mkdir":
		sw.printf("%d  %s mkdir(%q, 0755) = 0 <%s>\n", e.PID, ts, e.FP, dur)
	case e.Call == "truncate":
		sw.printf("%d  %s truncate(%q, 0) = 0 <%s>\n", e.PID, ts, e.FP, dur)
	case e.Call == "rename":
		// The semantic decoder takes the source path as the subject, so
		// any destination round-trips; render the conventional backup
		// name.
		sw.printf("%d  %s rename(%q, %q) = 0 <%s>\n", e.PID, ts, e.FP, e.FP+"~", dur)
	case e.Call == "execve":
		// The spawn subject is "path arg1 arg2 …" with argv[0] skipped,
		// so writing the whole FP as the path and the program basename
		// as argv[0] decodes back to exactly FP.
		sw.printf("%d  %s execve(%q, [%q], 0x7ffce2f9d438) = 0 <%s>\n",
			e.PID, ts, e.FP, argv0(e.FP), dur)
	case e.Call == "connect":
		sw.writeConnect(e, ts, dur)
	case transferCalls[e.Call]:
		size := e.Size
		if size < 0 {
			size = 0
		}
		sw.printf("%d  %s %s(%d<%s>, ..., %d) = %d <%s>\n",
			e.PID, ts, e.Call, sw.fd(e.FP), e.FP, size, size, dur)
	default:
		sw.printf("%d  %s %s(%d<%s>) = 0 <%s>\n",
			e.PID, ts, e.Call, sw.fd(e.FP), e.FP, dur)
	}
}

// writeConnect renders a connect record whose sockaddr struct literal
// decodes back to exactly e.FP under the semantic decoder: "ip:port"
// becomes an AF_INET struct, "[addr]:port" an AF_INET6 struct, anything
// else an AF_UNIX socket path (a leading '@' marks it abstract).
func (sw *Writer) writeConnect(e trace.Event, ts, dur string) {
	fd := sw.fd(e.FP)
	host, port, v6, ok := splitSubject(e.FP)
	switch {
	case ok && v6:
		sw.printf("%d  %s connect(%d<socket:[%d]>, {sa_family=AF_INET6, sin6_port=htons(%s), sin6_flowinfo=htonl(0), inet_pton(AF_INET6, %q, &sin6_addr), sin6_scope_id=0}, 28) = 0 <%s>\n",
			e.PID, ts, fd, fd, port, host, dur)
	case ok:
		sw.printf("%d  %s connect(%d<socket:[%d]>, {sa_family=AF_INET, sin_port=htons(%s), sin_addr=inet_addr(%q)}, 16) = 0 <%s>\n",
			e.PID, ts, fd, fd, port, host, dur)
	case strings.HasPrefix(e.FP, "@"):
		sw.printf("%d  %s connect(%d<socket:[%d]>, {sa_family=AF_UNIX, sun_path=@%q}, 110) = 0 <%s>\n",
			e.PID, ts, fd, fd, e.FP[1:], dur)
	default:
		sw.printf("%d  %s connect(%d<socket:[%d]>, {sa_family=AF_UNIX, sun_path=%q}, 110) = 0 <%s>\n",
			e.PID, ts, fd, fd, e.FP, dur)
	}
}

// splitSubject splits a canonical connection subject back into host and
// port: "1.2.3.4:443" or "[2001:db8::1]:443". Subjects that are not in
// either form (unix socket paths) report ok == false.
func splitSubject(fp string) (host, port string, v6, ok bool) {
	if strings.HasPrefix(fp, "[") {
		if i := strings.Index(fp, "]:"); i > 0 && allDigits(fp[i+2:]) {
			return fp[1:i], fp[i+2:], true, true
		}
		return "", "", false, false
	}
	i := strings.LastIndexByte(fp, ':')
	if i <= 0 || !allDigits(fp[i+1:]) || strings.IndexByte(fp, '/') >= 0 {
		return "", "", false, false
	}
	return fp[:i], fp[i+1:], false, true
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// argv0 derives the conventional argv[0] — the program basename — from a
// spawn subject ("path arg1 …").
func argv0(fp string) string {
	if i := strings.IndexByte(fp, ' '); i >= 0 {
		fp = fp[:i]
	}
	if i := strings.LastIndexByte(fp, '/'); i >= 0 {
		fp = fp[i+1:]
	}
	return fp
}

// WriteUnfinishedPair renders an event as an unfinished/resumed record
// pair with the given interleaving gap, exercising the merge path of the
// parser (Figure 2c).
func (sw *Writer) WriteUnfinishedPair(e trace.Event) {
	ts := trace.FormatTimeOfDay(e.Start)
	rts := trace.FormatTimeOfDay(e.End())
	dur := fmtSeconds(e.Dur)
	size := e.Size
	if size < 0 {
		size = 0
	}
	sw.printf("%d  %s %s(%d<%s>, <unfinished ...>\n", e.PID, ts, e.Call, sw.fd(e.FP), e.FP)
	sw.printf("%d  %s <... %s resumed> ..., %d) = %d <%s>\n", e.PID, rts, e.Call, size, size, dur)
}

// fmtSeconds renders a duration in strace's "<seconds.micros>" body form
// exactly (integer arithmetic, microsecond resolution).
func fmtSeconds(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	return fmt.Sprintf("%d.%06d", us/1e6, us%1e6)
}

// WriteCase renders every event of a case in order, followed by an exit
// record.
func (sw *Writer) WriteCase(c *trace.Case) error {
	for _, e := range c.Events {
		sw.writeEvent(e)
	}
	if len(c.Events) > 0 {
		last := c.Events[len(c.Events)-1]
		sw.printf("%d  %s +++ exited with 0 +++\n", last.PID, trace.FormatTimeOfDay(last.End()))
	}
	return sw.err
}

// WriteDir writes one "<cid>_<host>_<rid>.st" file per case of the
// event-log into dir, mirroring the recording setup of Figure 1.
func WriteDir(dir string, log *trace.EventLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ids := make([]trace.CaseID, 0, log.NumCases())
	for _, c := range log.Cases() {
		ids = append(ids, c.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		c := log.Case(id)
		f, err := os.Create(filepath.Join(dir, id.FileName()))
		if err != nil {
			return err
		}
		sw := NewWriter(f)
		werr := sw.WriteCase(c)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}
