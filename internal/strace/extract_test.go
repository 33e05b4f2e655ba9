package strace

import (
	"math/rand"
	"strings"
	"testing"

	"stinspector/internal/trace"
)

// eventOf parses a single line of a kept call and returns the resulting
// event.
func eventOf(t *testing.T, line string) trace.Event {
	t.Helper()
	recs := parseRecords(t, line)
	events, err := convertRecords(testID, recs, Options{})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	return events[0]
}

func TestExtractPathVariants(t *testing.T) {
	tests := []struct {
		line string
		want string
	}{
		{
			`1  10:00:00.000001 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 3</etc/passwd> <0.000008>`,
			"/etc/passwd",
		},
		{
			// Relative openat without a return annotation joined with
			// the annotated dirfd.
			`1  10:00:00.000002 openat(5</data/run42>, "part.bin", O_RDONLY) = 6 <0.000004>`,
			"/data/run42/part.bin",
		},
		{
			`1  10:00:00.000005 unlink("/tmp/ior.lock") = 0 <0.000007>`,
			"/tmp/ior.lock",
		},
		{
			`1  10:00:00.000006 rename("/tmp/ckpt.tmp", "/tmp/ckpt") = 0 <0.000008>`,
			"/tmp/ckpt.tmp",
		},
		{
			`1  10:00:00.000007 renameat2(AT_FDCWD, "/tmp/a", AT_FDCWD, "/tmp/b", 0) = 0 <0.000008>`,
			"/tmp/a",
		},
		{
			`1  10:00:00.000010 execve("/usr/bin/ls", ["ls"], 0x7ffd00 /* 60 vars */) = 0 <0.000200>`,
			"/usr/bin/ls",
		},
		{
			`1  10:00:00.000011 mkdirat(AT_FDCWD, "/p/scratch/u/fpp", 0755) = 0 <0.000030>`,
			"/p/scratch/u/fpp",
		},
		{
			`1  10:00:00.000012 fsync(7</p/scratch/u/ssf/test>) = 0 <0.003000>`,
			"/p/scratch/u/ssf/test",
		},
	}
	for _, tc := range tests {
		e := eventOf(t, tc.line)
		if e.FP != tc.want {
			t.Errorf("line %q:\n  fp = %q, want %q", tc.line, e.FP, tc.want)
		}
	}
}

// Fuzz-style robustness: random mutations of valid trace text must never
// panic the parser; they either parse or return an error.
func TestParserRobustnessUnderMutation(t *testing.T) {
	base := []string{
		`9054  08:55:54.153994 read(3</usr/lib/x.so>, ..., 832) = 832 <0.000203>`,
		`9054  08:55:54.163049 openat(AT_FDCWD, "/etc/passwd", O_RDONLY) = 3</etc/passwd> <0.000031>`,
		`77423  16:56:40.452431 read(3</f>, <unfinished ...>`,
		`77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>`,
		`9054  08:55:54.180000 +++ exited with 0 +++`,
		`9054  08:55:54.190000 --- SIGCHLD {si_signo=SIGCHLD} ---`,
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 5000; trial++ {
		line := base[rng.Intn(len(base))]
		b := []byte(line)
		// Apply 1-3 random mutations: flip, delete, insert.
		for k := 0; k < 1+rng.Intn(3); k++ {
			if len(b) == 0 {
				break
			}
			switch rng.Intn(3) {
			case 0:
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			case 1:
				i := rng.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			case 2:
				i := rng.Intn(len(b) + 1)
				b = append(b[:i], append([]byte{byte(rng.Intn(128))}, b[i:]...)...)
			}
		}
		// Must not panic.
		rec, err := parseLine(string(b))
		_ = rec
		_ = err
	}
}

// Whole-stream robustness: mutated multi-line inputs through the lenient
// reader and the event extraction must not panic.
func TestStreamRobustnessUnderMutation(t *testing.T) {
	valid := strings.Join([]string{
		`1  10:00:00.000001 openat(AT_FDCWD, "/a", O_RDONLY) = 3</a> <0.00001>`,
		`1  10:00:00.000002 read(3</a>, ..., 100) = 100 <0.000010>`,
		`2  10:00:00.000003 write(4</b>, <unfinished ...>`,
		`2  10:00:00.000004 <... write resumed> ..., 50) = 50 <0.000020>`,
		`1  10:00:00.000005 +++ exited with 0 +++`,
	}, "\n")
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 500; trial++ {
		b := []byte(valid)
		for k := 0; k < 5; k++ {
			i := rng.Intn(len(b))
			b[i] = byte(rng.Intn(128))
		}
		recs, _, err := readRecords(strings.NewReader(string(b)), true)
		if err != nil {
			continue
		}
		if _, err := convertRecords(testID, recs, Options{}); err != nil {
			t.Fatalf("lenient extraction errored: %v", err)
		}
	}
}
