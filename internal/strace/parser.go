package strace

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// ParseError describes a line that could not be parsed.
type ParseError struct {
	Line int    // 1-based line number, 0 if unknown
	Text string // offending line
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("strace: line %d: %s: %q", e.Line, e.Msg, e.Text)
	}
	return fmt.Sprintf("strace: %s: %q", e.Msg, e.Text)
}

// argBuilder materializes argument lists into a shared per-file arena,
// so the hot ParseCase loop does not allocate a fresh []string per
// record: every record's Args is a capacity-clamped subslice of the
// arena, and the argument strings themselves are subslices of the line.
// The zero value allocates a private arena.
type argBuilder struct {
	arena []string
}

// split splits an argument list, appending into the arena and returning
// the record's view of it (nil for an empty list, matching the
// empty split of splitArgsInto).
func (ab *argBuilder) split(s string) []string {
	start := len(ab.arena)
	ab.arena = splitArgsInto(s, ab.arena)
	if len(ab.arena) == start {
		return nil
	}
	return ab.arena[start:len(ab.arena):len(ab.arena)]
}

// reset drops the argument references accumulated for one file so the
// pooled arena does not pin parsed line text, keeping the (largest)
// backing array for reuse.
func (ab *argBuilder) reset() {
	clear(ab.arena)
	ab.arena = ab.arena[:0]
}

// parseLineWith parses one line of strace output into a record,
// splitting its arguments into the caller-owned arena. The line may or
// may not carry a leading PID column (strace -f); the parser detects
// this from the shape of the first field.
func parseLineWith(line string, ab *argBuilder) (record, error) {
	rec := record{Raw: line}
	s := strings.TrimRight(line, "\r\n")
	if strings.TrimSpace(s) == "" {
		return rec, &ParseError{Text: line, Msg: "empty line"}
	}

	// Optional PID column: an integer followed by whitespace and then a
	// timestamp. Without -f the line starts with the timestamp.
	rest := s
	if pid, after, ok := leadingInt(rest); ok {
		afterTrim := strings.TrimLeft(after, " \t")
		if afterTrim != after && startsWithTimestamp(afterTrim) {
			rec.PID = int(pid)
			rec.HasPID = true
			rest = afterTrim
		}
	}

	tsTok, rest, ok := cutField(rest)
	if !ok {
		return rec, &ParseError{Text: line, Msg: "missing timestamp"}
	}
	ts, err := parseTimestamp(tsTok)
	if err != nil {
		return rec, &ParseError{Text: line, Msg: err.Error()}
	}
	rec.Time = ts
	rest = strings.TrimLeft(rest, " \t")

	switch {
	case strings.HasPrefix(rest, "+++"):
		return parseExit(rec, rest, line)
	case strings.HasPrefix(rest, "---"):
		return parseSignal(rec, rest, line)
	case strings.HasPrefix(rest, "<..."):
		return parseResumed(rec, rest, line, ab)
	default:
		return parseCall(rec, rest, line, ab)
	}
}

// parseExit parses "+++ exited with 0 +++" and "+++ killed by SIGKILL +++".
func parseExit(rec record, rest, line string) (record, error) {
	rec.Kind = kindExit
	body := strings.TrimSuffix(strings.TrimPrefix(rest, "+++"), "+++")
	body = strings.TrimSpace(body)
	if st, found := strings.CutPrefix(body, "exited with "); found {
		n, err := strconv.Atoi(strings.TrimSpace(st))
		if err != nil {
			return rec, &ParseError{Text: line, Msg: "bad exit status"}
		}
		rec.ExitStatus = n
		return rec, nil
	}
	if sig, found := strings.CutPrefix(body, "killed by "); found {
		rec.Call = firstField(sig)
		return rec, nil
	}
	return rec, &ParseError{Text: line, Msg: "unrecognized +++ record"}
}

// firstField returns the first whitespace-delimited field of s as a
// subslice — strings.Fields(s)[0] without materializing the slice (or
// panicking on all-space input).
func firstField(s string) string {
	start := 0
	for start < len(s) {
		r, sz := utf8.DecodeRuneInString(s[start:])
		if !unicode.IsSpace(r) {
			break
		}
		start += sz
	}
	end := start
	for end < len(s) {
		r, sz := utf8.DecodeRuneInString(s[end:])
		if unicode.IsSpace(r) {
			break
		}
		end += sz
	}
	return s[start:end]
}

// parseSignal parses "--- SIGCHLD {si_signo=SIGCHLD, ...} ---".
func parseSignal(rec record, rest, line string) (record, error) {
	rec.Kind = kindSignal
	body := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(rest, "---"), "---"))
	if body == "" {
		return rec, &ParseError{Text: line, Msg: "empty signal record"}
	}
	rec.Call = firstField(body)
	return rec, nil
}

// parseResumed parses "<... read resumed> ..., 405) = 404 <0.000223>".
func parseResumed(rec record, rest, line string, ab *argBuilder) (record, error) {
	rec.Kind = kindResumed
	body := strings.TrimPrefix(rest, "<...")
	idx := strings.Index(body, "resumed>")
	if idx < 0 {
		return rec, &ParseError{Text: line, Msg: "malformed resumed record"}
	}
	rec.Call = strings.TrimSpace(body[:idx])
	tail := strings.TrimSpace(body[idx+len("resumed>"):])

	// The tail is the remainder of the argument list, a closing
	// parenthesis, and the usual return/duration suffix.
	argPart, retPart, found := cutReturn(tail)
	if !found {
		return rec, &ParseError{Text: line, Msg: "resumed record missing return value"}
	}
	argPart = strings.TrimSpace(argPart)
	argPart = strings.TrimSuffix(argPart, ")")
	rec.Args = ab.split(argPart)
	if err := parseReturn(&rec, retPart); err != nil {
		return rec, &ParseError{Text: line, Msg: err.Error()}
	}
	return rec, nil
}

// parseCall parses complete and unfinished system-call records.
func parseCall(rec record, rest, line string, ab *argBuilder) (record, error) {
	open := strings.IndexByte(rest, '(')
	if open <= 0 {
		return rec, &ParseError{Text: line, Msg: "missing '(' in system call record"}
	}
	rec.Call = rest[:open]
	if !validCallName(rec.Call) {
		return rec, &ParseError{Text: line, Msg: "invalid system call name"}
	}
	body := rest[open+1:]

	if strings.HasSuffix(strings.TrimSpace(body), "<unfinished ...>") {
		rec.Kind = kindUnfinished
		argPart := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(body), "<unfinished ...>"))
		argPart = strings.TrimSuffix(strings.TrimSpace(argPart), ",")
		rec.Args = ab.split(argPart)
		return rec, nil
	}

	rec.Kind = kindSyscall
	argPart, retPart, found := cutReturn(body)
	if !found {
		return rec, &ParseError{Text: line, Msg: "missing return value"}
	}
	argPart = strings.TrimSpace(argPart)
	argPart = strings.TrimSuffix(argPart, ")")
	rec.Args = ab.split(argPart)
	if err := parseReturn(&rec, retPart); err != nil {
		return rec, &ParseError{Text: line, Msg: err.Error()}
	}
	return rec, nil
}

// cutReturn splits a record tail at the top-level " = " separating the
// argument list from the return value. The separator is only valid at
// parenthesis depth zero (argument values can contain '=' inside braces,
// e.g. struct dumps).
func cutReturn(s string) (args, ret string, found bool) {
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case '=':
			if depth <= 0 && i > 0 && s[i-1] == ' ' && i+1 < len(s) && s[i+1] == ' ' {
				return s[:i-1], s[i+2:], true
			}
		}
	}
	return s, "", false
}

// parseReturn interprets the return token and trailing duration:
// "832 <0.000203>", "-1 EBADF (Bad file descriptor) <0.000010>",
// "3</etc/passwd> <0.000031>", "? ERESTARTSYS (To be restarted ...)".
func parseReturn(rec *record, s string) error {
	s = strings.TrimSpace(s)
	// Trailing duration.
	if i := strings.LastIndexByte(s, '<'); i >= 0 && strings.HasSuffix(s, ">") {
		durTok := s[i+1 : len(s)-1]
		// Distinguish "<0.000203>" from an fd path "<...>" return:
		// a duration is all digits and dots.
		if d, err := parseSeconds(durTok); err == nil {
			rec.Dur = d
			rec.HasDur = true
			s = strings.TrimSpace(s[:i])
		}
	}

	// An fd-annotated return consumes the whole token before the errno
	// split is attempted: the annotated path may itself contain spaces
	// (even errno lookalikes — "3</dir/-1 EAGAIN (...)>" is a valid -y
	// return), and splitting it at the first space would misread the
	// path tail as a failure. A genuine errno token never parses as an
	// fd path (its integer prefix is "-1" or "?", never a bare fd).
	if fd, path, ok := splitFDPath(s); ok {
		rec.Ret = s
		rec.RetInt = int64(fd)
		rec.RetOK = true
		rec.RetPath = path
		return nil
	}

	// Errno and its explanation: "-1 EBADF (Bad file descriptor)",
	// "? ERESTARTSYS (To be restarted if SA_RESTART is set)".
	if i := strings.IndexByte(s, ' '); i >= 0 {
		tail := strings.TrimSpace(s[i+1:])
		if tail != "" && tail[0] == 'E' {
			errno := tail
			if j := strings.IndexByte(errno, ' '); j >= 0 {
				errno = errno[:j]
			}
			rec.Errno = errno
		}
		s = s[:i]
	}
	rec.Ret = s
	if s == "?" {
		return nil
	}
	if fd, path, ok := splitFDPath(s); ok {
		rec.RetInt = int64(fd)
		rec.RetOK = true
		rec.RetPath = path
		return nil
	}
	if v, ok := parseInt(s); ok {
		rec.RetInt = v
		rec.RetOK = true
		return nil
	}
	// Pointers ("0x7f...") and other symbolic returns are kept raw.
	return nil
}

// splitArgsInto splits an argument list at top-level commas, respecting
// strings (with escapes), parentheses, brackets, braces and fd-path
// angle-bracket annotations. Every argument is a whitespace-trimmed
// subslice of s; results are appended to out, so the per-file parsing
// loop amortizes the slice allocation across records. An empty (or
// all-space) list appends nothing.
func splitArgsInto(s string, out []string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return out
	}
	var (
		depth int
		inStr bool
		start int
	)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(', '[', '{', '<':
			depth++
		case ')', ']', '}', '>':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(out, strings.TrimSpace(s[start:]))
}

// splitFDPath splits an fd-with-path token produced by strace -y, for
// example "3</usr/lib/libc.so.6>" into (3, "/usr/lib/libc.so.6", true).
func splitFDPath(s string) (fd int, path string, ok bool) {
	i := strings.IndexByte(s, '<')
	if i <= 0 || !strings.HasSuffix(s, ">") {
		return 0, "", false
	}
	n, err := strconv.Atoi(s[:i])
	if err != nil {
		return 0, "", false
	}
	return n, s[i+1 : len(s)-1], true
}

// parseTimestamp parses the strace -tt time-of-day form
// "HH:MM:SS.micros" and the -ttt epoch form "1700000000.123456" into a
// duration since the respective zero point.
func parseTimestamp(s string) (time.Duration, error) {
	if strings.Count(s, ":") == 2 {
		i := strings.IndexByte(s, ':')
		j := i + 1 + strings.IndexByte(s[i+1:], ':')
		h, err1 := strconv.Atoi(s[:i])
		m, err2 := strconv.Atoi(s[i+1 : j])
		sec, err3 := parseSeconds(s[j+1:])
		if err1 != nil || err2 != nil || err3 != nil || h < 0 || h > 23 || m < 0 || m > 59 || sec < 0 || sec >= 61*time.Second {
			return 0, fmt.Errorf("bad -tt timestamp %q", s)
		}
		return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + sec, nil
	}
	if d, err := parseSeconds(s); err == nil {
		return d, nil
	}
	return 0, fmt.Errorf("bad timestamp %q", s)
}

// parseSeconds parses a decimal-seconds token like "0.000203" or
// "54.153994" exactly (no float64 rounding), with up to nanosecond
// resolution.
func parseSeconds(s string) (time.Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("empty duration")
	}
	intPart, fracPart, hasFrac := strings.Cut(s, ".")
	if intPart == "" {
		intPart = "0"
	}
	sec, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil || sec < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	var ns int64
	if hasFrac {
		if fracPart == "" || len(fracPart) > 9 {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		f, err := strconv.ParseInt(fracPart, 10, 64)
		if err != nil || f < 0 {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		for i := len(fracPart); i < 9; i++ {
			f *= 10
		}
		ns = f
	}
	if sec > (1<<62)/int64(time.Second) {
		return 0, fmt.Errorf("duration overflow %q", s)
	}
	return time.Duration(sec)*time.Second + time.Duration(ns), nil
}

// parseInt parses a decimal or hexadecimal integer token.
func parseInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseInt(s[2:], 16, 64)
		return v, err == nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}

// cutField splits off the first whitespace-delimited field.
func cutField(s string) (field, rest string, ok bool) {
	s = strings.TrimLeft(s, " \t")
	if s == "" {
		return "", "", false
	}
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, "", true
	}
	return s[:i], s[i+1:], true
}

// leadingInt consumes a leading decimal integer, returning the remainder.
func leadingInt(s string) (int64, string, bool) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 || i > 18 {
		return 0, s, false
	}
	v, err := strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return 0, s, false
	}
	return v, s[i:], true
}

// startsWithTimestamp reports whether s begins with something shaped like
// a -tt or -ttt timestamp.
func startsWithTimestamp(s string) bool {
	// HH:MM:SS...
	if len(s) >= 8 && isDigit(s[0]) && isDigit(s[1]) && s[2] == ':' &&
		isDigit(s[3]) && isDigit(s[4]) && s[5] == ':' {
		return true
	}
	// epoch.micros
	i := 0
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i >= 9 && i < len(s) && s[i] == '.'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// validCallName reports whether s looks like a syscall identifier.
func validCallName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}
