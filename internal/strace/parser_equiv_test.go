package strace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"stinspector/internal/iorsim"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// This file pins the one-pass line parser — argument split and return
// cut fused into one byte-class scan, records filled in place, digit
// loops before strconv — against a verbatim copy of the line parser it
// replaced, over the fuzz corpus, the iorsim and synth writer round
// trips and a table of odd inputs. Every record field and every error
// must agree. checkParseCase runs the same line differential, so each
// FuzzParseCase input is checked too.

// ---- The replaced line parser, verbatim except that records no longer
// carry the raw line and parseExit/parseSignal fill a pointer. ----

func parseLineWithOld(line string, ab *argBuilder) (record, error) {
	rec := record{}
	s := strings.TrimRight(line, "\r\n")
	if strings.TrimSpace(s) == "" {
		return rec, &ParseError{Text: line, Msg: "empty line"}
	}

	// Optional PID column: an integer followed by whitespace and then a
	// timestamp. Without -f the line starts with the timestamp.
	rest := s
	if pid, after, ok := leadingIntOld(rest); ok {
		afterTrim := strings.TrimLeft(after, " \t")
		if afterTrim != after && startsWithTimestamp(afterTrim) {
			rec.PID = int(pid)
			rec.HasPID = true
			rest = afterTrim
		}
	}

	tsTok, rest, ok := cutFieldOld(rest)
	if !ok {
		return rec, &ParseError{Text: line, Msg: "missing timestamp"}
	}
	ts, err := parseTimestampOld(tsTok)
	if err != nil {
		return rec, &ParseError{Text: line, Msg: err.Error()}
	}
	rec.Time = ts
	rest = strings.TrimLeft(rest, " \t")

	switch {
	case strings.HasPrefix(rest, "+++"):
		err := parseExit(&rec, rest, line)
		return rec, err
	case strings.HasPrefix(rest, "---"):
		err := parseSignal(&rec, rest, line)
		return rec, err
	case strings.HasPrefix(rest, "<..."):
		return parseResumedOld(rec, rest, line, ab)
	default:
		return parseCallOld(rec, rest, line, ab)
	}
}

func parseResumedOld(rec record, rest, line string, ab *argBuilder) (record, error) {
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
	argPart, retPart, found := cutReturnOld(tail)
	if !found {
		return rec, &ParseError{Text: line, Msg: "resumed record missing return value"}
	}
	argPart = strings.TrimSpace(argPart)
	argPart = strings.TrimSuffix(argPart, ")")
	rec.Args = splitOld(ab, argPart)
	if err := parseReturnOld(&rec, retPart); err != nil {
		return rec, &ParseError{Text: line, Msg: err.Error()}
	}
	return rec, nil
}

func parseCallOld(rec record, rest, line string, ab *argBuilder) (record, error) {
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
		rec.Args = splitOld(ab, argPart)
		return rec, nil
	}

	rec.Kind = kindSyscall
	argPart, retPart, found := cutReturnOld(body)
	if !found {
		return rec, &ParseError{Text: line, Msg: "missing return value"}
	}
	argPart = strings.TrimSpace(argPart)
	argPart = strings.TrimSuffix(argPart, ")")
	rec.Args = splitOld(ab, argPart)
	if err := parseReturnOld(&rec, retPart); err != nil {
		return rec, &ParseError{Text: line, Msg: err.Error()}
	}
	return rec, nil
}

func cutReturnOld(s string) (args, ret string, found bool) {
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

func parseReturnOld(rec *record, s string) error {
	s = strings.TrimSpace(s)
	// Trailing duration.
	if i := strings.LastIndexByte(s, '<'); i >= 0 && strings.HasSuffix(s, ">") {
		durTok := s[i+1 : len(s)-1]
		// Distinguish "<0.000203>" from an fd path "<...>" return:
		// a duration is all digits and dots.
		if d, err := parseSecondsOld(durTok); err == nil {
			rec.Dur = d
			rec.HasDur = true
			s = strings.TrimSpace(s[:i])
		}
	}

	if fd, path, ok := splitFDPath(s); ok {
		rec.Ret = s
		rec.RetInt = int64(fd)
		rec.RetOK = true
		rec.RetPath = path
		return nil
	}

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
	if v, ok := parseIntOld(s); ok {
		rec.RetInt = v
		rec.RetOK = true
		return nil
	}
	// Pointers ("0x7f...") and other symbolic returns are kept raw.
	return nil
}

func parseTimestampOld(s string) (time.Duration, error) {
	if strings.Count(s, ":") == 2 {
		i := strings.IndexByte(s, ':')
		j := i + 1 + strings.IndexByte(s[i+1:], ':')
		h, err1 := strconv.Atoi(s[:i])
		m, err2 := strconv.Atoi(s[i+1 : j])
		sec, err3 := parseSecondsOld(s[j+1:])
		if err1 != nil || err2 != nil || err3 != nil || h < 0 || h > 23 || m < 0 || m > 59 || sec < 0 || sec >= 61*time.Second {
			return 0, fmt.Errorf("bad -tt timestamp %q", s)
		}
		return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + sec, nil
	}
	if d, err := parseSecondsOld(s); err == nil {
		return d, nil
	}
	return 0, fmt.Errorf("bad timestamp %q", s)
}

func parseSecondsOld(s string) (time.Duration, error) {
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

func parseIntOld(s string) (int64, bool) {
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

func cutFieldOld(s string) (field, rest string, ok bool) {
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

func leadingIntOld(s string) (int64, string, bool) {
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

// splitOld is the replaced argBuilder.split.
func splitOld(ab *argBuilder, s string) []string {
	start := len(ab.arena)
	ab.arena = splitArgsIntoOld(s, ab.arena)
	if len(ab.arena) == start {
		return nil
	}
	return ab.arena[start:len(ab.arena):len(ab.arena)]
}

func splitArgsIntoOld(s string, out []string) []string {
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

// ---- The differential. ----

// lineDiff parses line with the one-pass parser and the replaced one,
// each with a fresh arena, and describes the first difference ("" when
// they agree on the record and the error).
func lineDiff(line string) string {
	want, wantErr := parseLineWithOld(line, &argBuilder{})
	var got record
	gotErr := parseLineWith(line, &got, &argBuilder{})
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, replaced parser %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("record\n%+v\nreplaced parser\n%+v", got, want)
	}
	return ""
}

// checkLinesEquiv runs lineDiff over every line of data.
func checkLinesEquiv(t *testing.T, data string) {
	t.Helper()
	for _, line := range strings.Split(data, "\n") {
		if d := lineDiff(line); d != "" {
			t.Fatalf("line %.200q: %s", line, d)
		}
	}
}

// edgeLines are record shapes the generated corpora do not reach: an
// fd annotation holding " = ", unterminated quotes, escaped quotes and
// commas inside strings, trailing escapes, empty arguments inside
// braces and brackets, empty and unclosed argument lists, " = " inside
// braces, odd depths, Unicode spaces at the trim points, signed or
// oversized time tokens and exit and signal lines.
var edgeLines = []string{
	`1  00:00:01.000000 read(3</a = b>, "x", 1) = 1 <0.000001>`,
	`1  00:00:01.000000 openat(AT_FDCWD, "/x", O_RDONLY) = 3</a = b> <0.000001>`,
	`1  00:00:01.000000 read(3</a = b>, <unfinished ...>`,
	`1  00:00:01.000000 <... read resumed> 3</a = b>) = 1 <0.000001>`,
	`1  00:00:01.000000 write(1, "abc, 3) = 3 <0.000001>`,
	`1  00:00:01.000000 write(1, "abc\`,
	`1  00:00:01.000000 write(1, "a\", 1) = 1 <0.000001>\`,
	`1  00:00:01.000000 write(1, "a\\", 1) = 1 <0.000001>`,
	`1  00:00:01.000000 write(1, "a\ = 1`,
	`1  00:00:01.000000 getpid() = 5 <0.000001>`,
	`1  00:00:01.000000 getpid( ) = 5`,
	`1  00:00:01.000000 getpid()) = 5`,
	`1  00:00:01.000000 read(3, "x", 1 = 1 <0.000001>`,
	`1  00:00:01.000000 read(3, "x", 1`,
	`1  00:00:01.000000 fstat(3, {st_mode=S_IFREG, st_size = 5}) = 0 <0.000001>`,
	`1  00:00:01.000000 f(a = b) = c`,
	`1  00:00:01.000000 f(a)) = b, c) = d`,
	`1  00:00:01.000000 f(a], b) = 1`,
	`1  00:00:01.000000 f(a>, b<, c) = 1`,
	`1  00:00:01.000000 f(, ) = 0`,
	`1  00:00:01.000000 f(,) = 0`,
	`1  00:00:01.000000 f(a,) = 0`,
	`1  00:00:01.000000 f(a, <unfinished ...>`,
	`1  00:00:01.000000 f(<unfinished ...>`,
	`1  00:00:01.000000 f( , <unfinished ...>`,
	`1  00:00:01.000000 <... f resumed>) = 0`,
	`1  00:00:01.000000 <... f resumed> = 0`,
	`1  00:00:01.000000 <... f resumed> , x) = 0 <0.5>`,
	`1  00:00:01.000000 <... f resumed> x`,
	"1  00:00:01.000000 read(3,\u00a0x\u00a0) = 1 <0.000001>",
	"1  00:00:01.000000 read(\u00a0) = 1",
	"1  00:00:01.000000 read(x)\u00a0 = 1",
	"1  00:00:01.000000 read(x\u2028)\u2028 = 1",
	"1  00:00:01.000000 read(x)\xff = 1",
	"1\t00:00:01.000000\tread(3) = 1",
	"1 \t 00:00:01.000000 \t read(3) = 1\r\n",
	`1  00:00:01.000000 read(3) =  1 <0.000001>`,
	`1  00:00:01.000000 read(3) = -1 EAGAIN (Resource temporarily unavailable) <0.000001>`,
	`1  00:00:01.000000 read(3) = 0x7f00 <0.000001>`,
	`1  00:00:01.000000 read(3) = +5 <+5>`,
	`1  00:00:01.000000 read(3) = -0 <-0.5>`,
	`1  00:00:01.000000 read(3) = 1234567890123456789 <1234567890123456789>`,
	`1  00:00:01.000000 read(3) = 99999999999999999999 <1.1234567891>`,
	`1  00:00:01.000000 read(3) = 5 <0x10>`,
	`+5 read(3) = 1`,
	`-0 read(3) = 1`,
	`-0.5 read(3) = 1`,
	`1.+5 read(3) = 1`,
	`1234567890123456789.5 read(3) = 1`,
	`4611686018.5 read(3) = 1`,
	`4611686019.5 read(3) = 1`,
	`0x10 read(3) = 1`,
	`+1:+2:+3.5 read(3) = 1`,
	`-0:00:01.5 read(3) = 1`,
	`00:00:60.999999999 read(3) = 1`,
	`1:2:3:4 read(3) = 1`,
	`123456789012345678901  00:00:01.000000 read(3) = 1`,
	`1234567890123456789  00:00:01.000000 read(3) = 1`,
	`1  1700000000.123456 read(3) = 1`,
	`1  00:00:01.000000 +++ exited with 0 +++`,
	`1  00:00:01.000000 --- SIGCHLD {si_signo=SIGCHLD} ---`,
	`1  00:00:01.000000 openat(AT_FDCWD, "/a \"q\" b", O_RDONLY) = 3</a> <0.000001>`,
	`1  00:00:01.000000 futex({a=1, , }, [ , ], "x,,y", ) = 0 <0.000001>`,
	`1  00:00:01.000000 read(3</f>, <unfinished ...>`,
	`1  00:00:01.000000 <... read resumed> "", 0) = 0 <0.000001>`,
	`1  00:00:01.000000 +++ killed by SIGKILL (core dumped) +++`,
	`1  00:00:01.000000 --- SIGSEGV {si_signo=SIGSEGV, si_code=1} ---`,
	"",
	"   ",
	"\r",
}

// timeTokens are time tokens around the digit loops' fast-path limits.
var timeTokens = []string{
	"08:55:54.153994", "23:59:60.999999", "24:00:00.0", "1:2:3", "a:b:c",
	"1700000000.123456", "0.0", ".5", "5.", "1:2:3:4", "::", "", "99:99:99",
	"+5", "-0", "+5.1", "1.+5", "-0.5", "1.-5", "0x10", "0x10.5",
	"123456789012345678", "1234567890123456789", "9223372036854775807",
	"9223372036854775808", "4611686018", "4611686019", "00000000000000000001.5",
	"1.123456789", "1.1234567890", "+1:+2:+3.5", "-0:00:01.5", "1:2:+3",
	"1_0", "1.5_0", " 1", "1 ",
}

// equivCorpus gathers every text the parser differential runs over: the
// fuzz seeds and on-disk corpus, the synth and iorsim writer round
// trips (unfinished/resumed pairs included) and the edge table.
func equivCorpus(t *testing.T) []string {
	t.Helper()
	texts := append([]string(nil), fuzzSeeds...)
	ents, _ := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzParseCase"))
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseCase", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(string(b), "\n") {
			if q, ok := strings.CutPrefix(l, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				texts = append(texts, s)
			}
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	logs := []*trace.EventLog{synth.Log("eq", 3, 40, 7), synth.WideLog("eqw", 2, 40, 9)}
	for _, fpp := range []bool{false, true} {
		res, err := iorsim.Run(iorsim.Config{
			CID: "eqior", Ranks: 4, Hosts: 2, TransferSize: 256 << 10, BlockSize: 1 << 20,
			Segments: 2, Write: true, Read: true, FilePerProc: fpp, Preamble: true, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, res.Log)
	}
	for _, log := range logs {
		for _, c := range log.Cases() {
			if err := w.WriteCase(c); err != nil {
				t.Fatal(err)
			}
			for _, e := range c.Events[:min(5, len(c.Events))] {
				w.WriteUnfinishedPair(e)
			}
		}
	}
	return append(texts, buf.String(), strings.Join(edgeLines, "\n"))
}

// TestParseLineEquivalence: the one-pass parser yields the replaced
// parser's record, field for field, and its error, on every corpus line.
func TestParseLineEquivalence(t *testing.T) {
	for _, text := range equivCorpus(t) {
		checkLinesEquiv(t, text)
	}
}

// TestSplitArgsEquivalence: the scan without a return cut splits like
// the replaced splitter, on whole lines and on their argument parts.
func TestSplitArgsEquivalence(t *testing.T) {
	for _, text := range equivCorpus(t) {
		for _, line := range strings.Split(text, "\n") {
			inputs := []string{line}
			if i := strings.IndexByte(line, '('); i >= 0 {
				if args, _, found := cutReturnOld(line[i+1:]); found {
					inputs = append(inputs, strings.TrimSuffix(strings.TrimSpace(args), ")"))
				}
			}
			for _, in := range inputs {
				want := splitArgsIntoOld(in, nil)
				if len(want) == 0 {
					want = nil
				}
				if got := splitArgs(in); !reflect.DeepEqual(got, want) {
					t.Errorf("splitArgs(%q) = %q, want %q", in, got, want)
				}
			}
		}
	}
}

// TestParseTimestampEquivalence: the digit loops give strconv's values
// and errors on corpus time fields and the token table — signs,
// overflow and non-decimal tokens included.
func TestParseTimestampEquivalence(t *testing.T) {
	inputs := append([]string(nil), timeTokens...)
	for _, text := range equivCorpus(t) {
		for _, line := range strings.Split(text, "\n") {
			if f, rest, ok := cutField(line); ok {
				inputs = append(inputs, f)
				if f2, _, ok := cutField(rest); ok {
					inputs = append(inputs, f2)
				}
			}
		}
	}
	for _, in := range inputs {
		got, gotErr := parseTimestamp(in)
		want, wantErr := parseTimestampOld(in)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("parseTimestamp(%q) = %v, %v; replaced %v, %v", in, got, gotErr, want, wantErr)
		}
		got, gotErr = parseSeconds(in)
		want, wantErr = parseSecondsOld(in)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("parseSeconds(%q) = %v, %v; replaced %v, %v", in, got, gotErr, want, wantErr)
		}
		gi, gok := parseInt(in)
		wi, wok := parseIntOld(in)
		if gi != wi || gok != wok {
			t.Errorf("parseInt(%q) = %d, %v; replaced %d, %v", in, gi, gok, wi, wok)
		}
	}
}

// TestFirstFieldEquivalence: firstField must agree with
// strings.Fields(...)[0] wherever the parser can reach it.
func TestFirstFieldEquivalence(t *testing.T) {
	var inputs []string
	for _, text := range equivCorpus(t) {
		for _, line := range strings.Split(text, "\n") {
			inputs = append(inputs, line)
			if s, ok := strings.CutPrefix(line, "+++"); ok {
				inputs = append(inputs, strings.TrimSpace(strings.TrimSuffix(s, "+++")))
			}
		}
	}
	inputs = append(inputs, "SIGKILL (core dumped)", " SIGCHLD", "x", "\u00a0nbsp lead", "mixed\ttab")
	for _, in := range inputs {
		f := strings.Fields(in)
		if len(f) == 0 {
			continue // the parser never takes the first field of all-space input
		}
		if got := firstField(in); got != f[0] {
			t.Errorf("firstField(%q) = %q, want %q", in, got, f[0])
		}
	}
}

// TestParseLineArenaEquivalence: whole-record equivalence between a
// private arena per line and one arena shared by every line, as the
// per-file path runs it.
func TestParseLineArenaEquivalence(t *testing.T) {
	arena := &argBuilder{}
	for _, text := range equivCorpus(t) {
		for _, line := range strings.Split(text, "\n") {
			want, wantErr := parseLine(line)
			var got record
			gotErr := parseLineWith(line, &got, arena)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("shared arena error %v, private %v for %q", gotErr, wantErr, line)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("record diverges for %q:\nshared:  %+v\nprivate: %+v", line, got, want)
			}
		}
	}
}
