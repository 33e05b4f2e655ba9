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

// reset drops the argument references accumulated for one file so the
// pooled arena does not pin parsed line text, keeping the (largest)
// backing array for reuse.
func (ab *argBuilder) reset() {
	clear(ab.arena)
	ab.arena = ab.arena[:0]
}

// Byte classes of the argument scan. Only bytes outside a string
// literal are classified; inside one, just '"' and '\\' matter.
const (
	bOrdinary   = iota
	bQuote      // '"' opens a string literal
	bOpen       // '(' '[' '{'
	bClose      // ')' ']' '}'
	bOpenAngle  // '<' of an fd-path annotation
	bCloseAngle // '>'
	bComma      // argument separator
	bEquals     // '=' of the " = " before the return value
)

// byteClass maps every byte to its class, so the scan passes over
// ordinary bytes with one table load and one compare.
var byteClass = [256]uint8{
	'"': bQuote,
	'(': bOpen, '[': bOpen, '{': bOpen,
	')': bClose, ']': bClose, '}': bClose,
	'<': bOpenAngle, '>': bCloseAngle,
	',': bComma, '=': bEquals,
}

// scan splits the argument list at the front of s in one pass. It
// appends the top-level arguments to the arena — cut at commas outside
// strings, parentheses, brackets, braces and fd-path angle brackets,
// each whitespace-trimmed — and returns the record's view of them (nil
// for an empty list).
//
// With cut, s is a record tail: the argument list ends at the first " = "
// outside strings and below parenthesis depth one, whose return part
// follows it, and a ')' before the " = " closes the call rather than
// ending the last argument. That depth counts only '(' '[' '{' against
// ')' ']' '}' and may go negative, while the comma depth also counts the
// angle brackets and stops at zero; both rules are kept so an
// annotation such as "3</a = b>" parses as it always has. found reports
// a return part; without one nothing is appended. Without cut, all of
// s is the argument list.
func (ab *argBuilder) scan(s string, cut bool) (args []string, ret string, found bool) {
	start := len(ab.arena)
	var (
		nest  int // '(' '[' '{' depth: the return-value rule
		depth int // the same plus '<', clamped at 0: the comma rule
		seg   int // first byte of the current argument
		end   = len(s)
	)
scan:
	for i := 0; i < len(s); i++ {
		switch byteClass[s[i]] {
		case bOrdinary:
		case bQuote:
			// Skip the literal; an escape skips the byte after it.
			for i++; i < len(s); i++ {
				if c := s[i]; c == '\\' {
					i++
				} else if c == '"' {
					break
				}
			}
		case bOpen:
			nest++
			depth++
		case bClose:
			nest--
			if depth > 0 {
				depth--
			}
		case bOpenAngle:
			depth++
		case bCloseAngle:
			if depth > 0 {
				depth--
			}
		case bComma:
			if depth == 0 {
				ab.arena = append(ab.arena, strings.TrimSpace(s[seg:i]))
				seg = i + 1
			}
		case bEquals:
			if cut && nest <= 0 && i > 0 && s[i-1] == ' ' && i+1 < len(s) && s[i+1] == ' ' {
				end, ret, found = i-1, s[i+2:], true
				break scan
			}
		}
	}
	if cut {
		if !found {
			clear(ab.arena[start:])
			ab.arena = ab.arena[:start]
			return nil, "", false
		}
		// No comma lies in the trimmed call-closing suffix, so every
		// argument but the last is already in the arena.
		end = len(strings.TrimSuffix(strings.TrimRightFunc(s[:end], unicode.IsSpace), ")"))
	}
	if last := strings.TrimSpace(s[seg:end]); len(ab.arena) > start || last != "" {
		ab.arena = append(ab.arena, last)
	}
	if len(ab.arena) == start {
		return nil, ret, found
	}
	return ab.arena[start:len(ab.arena):len(ab.arena)], ret, found
}

// parseLineWith parses one line of strace output into *rec, which must
// be zero, splitting its arguments into the caller-owned arena. The
// line may or may not carry a leading PID column (strace -f); the
// parser detects this from the shape of the first field.
func parseLineWith(line string, rec *record, ab *argBuilder) error {
	s := trimNewlines(line)
	if strings.TrimSpace(s) == "" {
		return &ParseError{Text: line, Msg: "empty line"}
	}

	// Optional PID column: an integer followed by whitespace and then a
	// timestamp. Without -f the line starts with the timestamp.
	rest := s
	if pid, after, ok := leadingInt(rest); ok {
		afterTrim := trimBlank(after)
		if len(afterTrim) != len(after) && startsWithTimestamp(afterTrim) {
			rec.PID = int(pid)
			rec.HasPID = true
			rest = afterTrim
		}
	}

	tsTok, rest, ok := cutField(rest)
	if !ok {
		return &ParseError{Text: line, Msg: "missing timestamp"}
	}
	ts, err := parseTimestamp(tsTok)
	if err != nil {
		return &ParseError{Text: line, Msg: err.Error()}
	}
	rec.Time = ts
	rest = trimBlank(rest)

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

// trimBlank cuts the leading spaces and tabs of s.
func trimBlank(s string) string {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	return s[i:]
}

// trimNewlines cuts the trailing carriage returns and newlines of s.
func trimNewlines(s string) string {
	i := len(s)
	for i > 0 && (s[i-1] == '\r' || s[i-1] == '\n') {
		i--
	}
	return s[:i]
}

// parseExit parses "+++ exited with 0 +++" and "+++ killed by SIGKILL +++".
func parseExit(rec *record, rest, line string) error {
	rec.Kind = kindExit
	body := strings.TrimSuffix(strings.TrimPrefix(rest, "+++"), "+++")
	body = strings.TrimSpace(body)
	if st, found := strings.CutPrefix(body, "exited with "); found {
		n, err := strconv.Atoi(strings.TrimSpace(st))
		if err != nil {
			return &ParseError{Text: line, Msg: "bad exit status"}
		}
		rec.ExitStatus = n
		return nil
	}
	if sig, found := strings.CutPrefix(body, "killed by "); found {
		rec.Call = firstField(sig)
		return nil
	}
	return &ParseError{Text: line, Msg: "unrecognized +++ record"}
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
func parseSignal(rec *record, rest, line string) error {
	rec.Kind = kindSignal
	body := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(rest, "---"), "---"))
	if body == "" {
		return &ParseError{Text: line, Msg: "empty signal record"}
	}
	rec.Call = firstField(body)
	return nil
}

// parseResumed parses "<... read resumed> ..., 405) = 404 <0.000223>".
func parseResumed(rec *record, rest, line string, ab *argBuilder) error {
	rec.Kind = kindResumed
	body := strings.TrimPrefix(rest, "<...")
	idx := strings.Index(body, "resumed>")
	if idx < 0 {
		return &ParseError{Text: line, Msg: "malformed resumed record"}
	}
	rec.Call = strings.TrimSpace(body[:idx])

	// The tail is the remainder of the argument list, a closing
	// parenthesis, and the usual return/duration suffix.
	args, ret, found := ab.scan(strings.TrimSpace(body[idx+len("resumed>"):]), true)
	if !found {
		return &ParseError{Text: line, Msg: "resumed record missing return value"}
	}
	rec.Args = args
	parseReturn(rec, ret)
	return nil
}

// parseCall parses complete and unfinished system-call records.
func parseCall(rec *record, rest, line string, ab *argBuilder) error {
	open := strings.IndexByte(rest, '(')
	if open <= 0 {
		return &ParseError{Text: line, Msg: "missing '(' in system call record"}
	}
	rec.Call = rest[:open]
	if !validCallName(rec.Call) {
		return &ParseError{Text: line, Msg: "invalid system call name"}
	}
	body := rest[open+1:]

	if trimmed := strings.TrimSpace(body); strings.HasSuffix(trimmed, "<unfinished ...>") {
		rec.Kind = kindUnfinished
		argPart := strings.TrimSpace(strings.TrimSuffix(trimmed, "<unfinished ...>"))
		rec.Args, _, _ = ab.scan(strings.TrimSuffix(argPart, ","), false)
		return nil
	}

	rec.Kind = kindSyscall
	args, ret, found := ab.scan(body, true)
	if !found {
		return &ParseError{Text: line, Msg: "missing return value"}
	}
	rec.Args = args
	parseReturn(rec, ret)
	return nil
}

// parseReturn interprets the return token and trailing duration:
// "832 <0.000203>", "-1 EBADF (Bad file descriptor) <0.000010>",
// "3</etc/passwd> <0.000031>", "? ERESTARTSYS (To be restarted ...)".
func parseReturn(rec *record, s string) {
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
		return
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
		return
	}
	if fd, path, ok := splitFDPath(s); ok {
		rec.RetInt = int64(fd)
		rec.RetOK = true
		rec.RetPath = path
		return
	}
	if v, ok := parseInt(s); ok {
		rec.RetInt = v
		rec.RetOK = true
	}
	// Pointers ("0x7f...") and other symbolic returns are kept raw.
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
	if i := strings.IndexByte(s, ':'); i >= 0 {
		if j := strings.IndexByte(s[i+1:], ':'); j >= 0 {
			j += i + 1
			if strings.IndexByte(s[j+1:], ':') < 0 {
				h, err1 := parseInt10(s[:i])
				m, err2 := parseInt10(s[i+1 : j])
				sec, err3 := parseSeconds(s[j+1:])
				if err1 != nil || err2 != nil || err3 != nil || h < 0 || h > 23 || m < 0 || m > 59 || sec < 0 || sec >= 61*time.Second {
					return 0, fmt.Errorf("bad -tt timestamp %q", s)
				}
				return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + sec, nil
			}
		}
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
	sec, err := parseInt10(intPart)
	if err != nil || sec < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	var ns int64
	if hasFrac {
		if fracPart == "" || len(fracPart) > 9 {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		f, err := parseInt10(fracPart)
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

// digits returns the value of s when it is 1 to 18 decimal digits, a
// length that cannot overflow an int64.
func digits(s string) (int64, bool) {
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		v = v*10 + int64(c)
	}
	return v, true
}

// parseInt10 is strconv.ParseInt(s, 10, 64) with a fast path for plain
// digit runs; any other token (a sign, an overflow, a stray byte) takes
// strconv's path and its result.
func parseInt10(s string) (int64, error) {
	if v, ok := digits(s); ok {
		return v, nil
	}
	return strconv.ParseInt(s, 10, 64)
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
	v, err := parseInt10(s)
	return v, err == nil
}

// cutField splits off the first space- or tab-delimited field.
func cutField(s string) (field, rest string, ok bool) {
	s = trimBlank(s)
	if s == "" {
		return "", "", false
	}
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", true
}

// leadingInt consumes a leading decimal integer, returning the remainder.
func leadingInt(s string) (int64, string, bool) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	v, ok := digits(s[:i])
	if !ok {
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
