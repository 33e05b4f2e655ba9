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

	"stinspector/internal/trace"
)

// This file pins the zero-copy parser rewrites — the arena-backed
// splitArgs, the allocation-free parseTimestamp, and the
// firstField-based parseExit/parseSignal — against verbatim copies of
// the pre-rewrite implementations, over the fuzz corpus and the
// writer-dialect round trip. Behavioural equivalence here plus the
// package's structural tests is the acceptance bar for touching the
// hot path.

// splitArgsOld is the pre-arena implementation, verbatim.
func splitArgsOld(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var (
		out   []string
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
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// parseTimestampOld is the pre-rewrite parseTimestamp, verbatim (it
// allocated a 3-element slice per call via SplitN).
func parseTimestampOld(s string) (time.Duration, error) {
	if strings.Count(s, ":") == 2 {
		parts := strings.SplitN(s, ":", 3)
		h, err1 := strconv.Atoi(parts[0])
		m, err2 := strconv.Atoi(parts[1])
		sec, err3 := parseSeconds(parts[2])
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

// fieldsFirstOld reproduces the old strings.Fields(...)[0] extraction
// used by parseExit/parseSignal.
func fieldsFirstOld(s string) (string, bool) {
	f := strings.Fields(s)
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

// equivCorpus gathers every line the parser equivalence runs over: the
// fuzz seeds, the on-disk fuzz corpus if any, and a writer-rendered
// synthetic case (the round-trip dialect).
func equivCorpus(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(s string) {
		for _, l := range strings.Split(s, "\n") {
			lines = append(lines, l)
		}
	}
	for _, s := range fuzzSeeds {
		add(s)
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzParseCase"))
	if err == nil {
		for _, ent := range ents {
			b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseCase", ent.Name()))
			if err == nil {
				add(string(b))
			}
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	c := trace.NewCase(trace.CaseID{CID: "eq", Host: "h", RID: 3}, []trace.Event{
		{PID: 3, Call: "openat", Start: 1000, Dur: 500, FP: "/tmp/eq", Size: trace.SizeUnknown},
		{PID: 3, Call: "pwrite64", Start: 3000, Dur: 700, FP: "/tmp/eq", Size: 4096},
		{PID: 3, Call: "close", Start: 9000, Dur: 100, FP: "/tmp/eq", Size: trace.SizeUnknown},
	})
	if err := w.WriteCase(c); err != nil {
		t.Fatal(err)
	}
	add(buf.String())
	// Adversarial argument shapes the corpus might miss.
	lines = append(lines,
		`1  00:00:01.000000 openat(AT_FDCWD, "/a \"q\" b", O_RDONLY) = 3</a> <0.000001>`,
		`1  00:00:01.000000 futex({a=1, , }, [ , ], "x,,y", ) = 0 <0.000001>`,
		`1  00:00:01.000000 read(3</f>, <unfinished ...>`,
		`1  00:00:01.000000 <... read resumed> "", 0) = 0 <0.000001>`,
		`1  00:00:01.000000 +++ killed by SIGKILL (core dumped) +++`,
		`1  00:00:01.000000 --- SIGSEGV {si_signo=SIGSEGV, si_code=1} ---`,
	)
	return lines
}

// TestSplitArgsEquivalence: the arena splitter must reproduce the old
// splitter's output exactly on the argument part of every corpus line
// and on raw corpus text.
func TestSplitArgsEquivalence(t *testing.T) {
	arena := &argBuilder{}
	for _, line := range equivCorpus(t) {
		inputs := []string{line}
		if i := strings.IndexByte(line, '('); i >= 0 {
			body := line[i+1:]
			if args, _, found := cutReturn(body); found {
				inputs = append(inputs, strings.TrimSuffix(strings.TrimSpace(args), ")"))
			}
		}
		for _, in := range inputs {
			want := splitArgsOld(in)
			got := splitArgs(in)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("splitArgs(%q) = %q, want %q", in, got, want)
			}
			gotArena := arena.split(in)
			if len(gotArena) == 0 {
				gotArena = nil
			}
			if !reflect.DeepEqual([]string(gotArena), want) {
				t.Errorf("arena split(%q) = %q, want %q", in, gotArena, want)
			}
		}
	}
}

// TestParseTimestampEquivalence: same values and same error text as the
// SplitN-based implementation, on corpus first-fields and a table of
// shapes.
func TestParseTimestampEquivalence(t *testing.T) {
	var inputs []string
	for _, line := range equivCorpus(t) {
		f, rest, ok := cutField(line)
		if ok {
			inputs = append(inputs, f)
			if f2, _, ok2 := cutField(rest); ok2 {
				inputs = append(inputs, f2)
			}
		}
	}
	inputs = append(inputs,
		"08:55:54.153994", "23:59:60.999999", "24:00:00.0", "1:2:3", "a:b:c",
		"1700000000.123456", "0.0", ".5", "5.", "1:2:3:4", "::", "", "99:99:99",
	)
	for _, in := range inputs {
		want, wantErr := parseTimestampOld(in)
		got, gotErr := parseTimestamp(in)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("parseTimestamp(%q) err = %v, want %v", in, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("parseTimestamp(%q) error text %q, want %q", in, gotErr, wantErr)
			}
			continue
		}
		if got != want {
			t.Errorf("parseTimestamp(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestFirstFieldEquivalence: firstField must agree with
// strings.Fields(...)[0] wherever the old code could reach it.
func TestFirstFieldEquivalence(t *testing.T) {
	var inputs []string
	for _, line := range equivCorpus(t) {
		inputs = append(inputs, line)
		if s, ok := strings.CutPrefix(line, "+++"); ok {
			inputs = append(inputs, strings.TrimSpace(strings.TrimSuffix(s, "+++")))
		}
	}
	inputs = append(inputs, "SIGKILL (core dumped)", " SIGCHLD", "x", "\u00a0nbsp lead", "mixed\ttab")
	for _, in := range inputs {
		want, ok := fieldsFirstOld(in)
		if !ok {
			continue // old code never called Fields on all-space input
		}
		if got := firstField(in); got != want {
			t.Errorf("firstField(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestParseLineArenaEquivalence: whole-record equivalence between the
// standalone parseLine (private arena per call) and the pooled
// per-file path (shared arena), over every corpus line.
func TestParseLineArenaEquivalence(t *testing.T) {
	arena := &argBuilder{}
	for _, line := range equivCorpus(t) {
		want, wantErr := parseLine(line)
		got, gotErr := parseLineWith(line, arena)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("parseLineWith(%q) err = %v, parseLine err = %v", line, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("error text diverges for %q: %q vs %q", line, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record diverges for %q:\narena: %+v\nplain: %+v", line, got, want)
		}
	}
}
