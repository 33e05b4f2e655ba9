package strace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"stinspector/internal/trace"
)

var testID = trace.CaseID{CID: "a", Host: "host1", RID: 9042}

func parseRecords(t *testing.T, lines ...string) []record {
	t.Helper()
	recs, _, err := readRecords(strings.NewReader(strings.Join(lines, "\n")), false)
	if err != nil {
		t.Fatalf("readRecords: %v", err)
	}
	return recs
}

func TestEventsFromRecordsBasic(t *testing.T) {
	recs := parseRecords(t,
		`9054  08:55:54.153994 read(3</usr/lib/libselinux.so.1>, ..., 832) = 832 <0.000203>`,
		`9054  08:55:54.163560 read(3</etc/locale.alias>, ..., 4096) = 2996 <0.000041>`,
		`9054  08:55:54.176260 write(1</dev/pts/7>, ..., 50) = 50 <0.000111>`,
		`9054  08:55:54.180000 +++ exited with 0 +++`,
	)
	events, err := convertRecords(testID, recs, Options{})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3 (exit record must be dropped)", len(events))
	}
	e := events[0]
	if e.PID != 9054 {
		t.Errorf("pid = %d, want 9054", e.PID)
	}
	if e.Call != "read" || e.FP != "/usr/lib/libselinux.so.1" || e.Size != 832 {
		t.Errorf("event 0 = %+v", e)
	}
	if e.Dur != 203*time.Microsecond {
		t.Errorf("dur = %v", e.Dur)
	}
	if events[2].FP != "/dev/pts/7" || events[2].Size != 50 {
		t.Errorf("write event = %+v", events[2])
	}
}

func TestEventsMergeUnfinishedResumed(t *testing.T) {
	recs := parseRecords(t,
		`77423  16:56:40.452431 read(3</usr/lib/libselinux.so.1>, <unfinished ...>`,
		`77500  16:56:40.452500 write(1</dev/pts/7>, ..., 9) = 9 <0.000074>`,
		`77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>`,
	)
	events, err := convertRecords(testID, recs, Options{Strict: true})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	// The merged read keeps its original start timestamp and takes
	// duration/size from the resumed half.
	var merged trace.Event
	for _, e := range events {
		if e.Call == "read" {
			merged = e
		}
	}
	wantStart := 16*time.Hour + 56*time.Minute + 40*time.Second + 452431*time.Microsecond
	if merged.Start != wantStart {
		t.Errorf("merged start = %v, want %v", merged.Start, wantStart)
	}
	if merged.Dur != 223*time.Microsecond {
		t.Errorf("merged dur = %v", merged.Dur)
	}
	if merged.Size != 404 {
		t.Errorf("merged size = %d, want 404 (transferred, not requested)", merged.Size)
	}
	if merged.FP != "/usr/lib/libselinux.so.1" {
		t.Errorf("merged path = %q", merged.FP)
	}
	if merged.PID != 77423 {
		t.Errorf("merged pid = %d", merged.PID)
	}
}

func TestEventsUnfinishedAcrossPIDsDoNotMix(t *testing.T) {
	recs := parseRecords(t,
		`100  10:00:00.000001 read(3</a>, <unfinished ...>`,
		`200  10:00:00.000002 read(4</b>, <unfinished ...>`,
		`200  10:00:00.000003 <... read resumed> ..., 10) = 10 <0.000001>`,
		`100  10:00:00.000004 <... read resumed> ..., 20) = 20 <0.000003>`,
	)
	events, err := convertRecords(testID, recs, Options{Strict: true})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	byPID := map[int]trace.Event{}
	for _, e := range events {
		byPID[e.PID] = e
	}
	if byPID[100].Size != 20 || byPID[100].FP != "/a" {
		t.Errorf("pid 100 merged wrong: %+v", byPID[100])
	}
	if byPID[200].Size != 10 || byPID[200].FP != "/b" {
		t.Errorf("pid 200 merged wrong: %+v", byPID[200])
	}
}

func TestEventsDropInterrupted(t *testing.T) {
	recs := parseRecords(t,
		`100  10:00:00.000001 read(3</f>, ..., 4096) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.010000>`,
		`100  10:00:00.020000 read(3</f>, ..., 4096) = 4096 <0.000100>`,
	)
	events, err := convertRecords(testID, recs, Options{Strict: true})
	if err != nil {
		t.Fatalf("convertRecords: %v", err)
	}
	if len(events) != 1 || events[0].Size != 4096 {
		t.Errorf("events = %+v, want only the restarted read", events)
	}
}

func TestEventsFailedCalls(t *testing.T) {
	lines := []string{
		`100  10:00:00.000001 openat(AT_FDCWD, "/missing", O_RDONLY) = -1 ENOENT (No such file or directory) <0.000008>`,
		`100  10:00:00.000002 read(3</f>, ..., 100) = 100 <0.000001>`,
	}
	recs := parseRecords(t, lines...)
	events, err := convertRecords(testID, recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Call != "read" {
		t.Errorf("failed calls must be dropped: got %+v", events)
	}
}

// TestEventsCallFilter pins the fixed extraction set of Section III: one
// completed line per call of ioCalls ∪ behaviorCalls becomes one event,
// in order, on both the batch and the live path; a failed call, an
// interrupted one and calls outside the set (stat, mmap, newfstatat)
// leave none.
func TestEventsCallFilter(t *testing.T) {
	kept := []string{
		`read(3</f>, ..., 10) = 10`,
		`pread64(3</f>, ..., 10, 0) = 10`,
		`readv(3</f>, [{iov_base="x", iov_len=1}], 1) = 1`,
		`preadv(3</f>, [{iov_base="x", iov_len=1}], 1, 0) = 1`,
		`preadv2(3</f>, [{iov_base="x", iov_len=1}], 1, 0, 0) = 1`,
		`write(3</f>, "x", 1) = 1`,
		`pwrite64(3</f>, "x", 1, 0) = 1`,
		`writev(3</f>, [{iov_base="x", iov_len=1}], 1) = 1`,
		`pwritev(3</f>, [{iov_base="x", iov_len=1}], 1, 0) = 1`,
		`pwritev2(3</f>, [{iov_base="x", iov_len=1}], 1, 0, 0) = 1`,
		`openat(AT_FDCWD, "/f", O_RDONLY) = 3</f>`,
		`open("/f", O_RDONLY) = 3</f>`,
		`creat("/f", 0644) = 3</f>`,
		`close(3</f>) = 0`,
		`lseek(3</f>, 0, SEEK_SET) = 0`,
		`fsync(3</f>) = 0`,
		`fdatasync(3</f>) = 0`,
		`unlink("/f") = 0`,
		`unlinkat(AT_FDCWD, "/f", 0) = 0`,
		`rmdir("/d") = 0`,
		`rename("/f", "/g") = 0`,
		`renameat(AT_FDCWD, "/f", AT_FDCWD, "/g") = 0`,
		`renameat2(AT_FDCWD, "/f", AT_FDCWD, "/g", 0) = 0`,
		`mkdir("/d", 0755) = 0`,
		`mkdirat(AT_FDCWD, "/d", 0755) = 0`,
		`truncate("/f", 0) = 0`,
		`ftruncate(3</f>, 0) = 0`,
		`execve("/bin/true", ["true"], 0x7ffd00 /* 1 vars */) = 0`,
		`execveat(AT_FDCWD, "/bin/true", ["true"], 0x7ffd00 /* 1 vars */, 0) = 0`,
		`connect(3<socket:[1]>, {sa_family=AF_INET, sin_port=htons(80), sin_addr=inet_addr("10.0.0.1")}, 16) = 0`,
	}
	dropped := []string{
		`openat(AT_FDCWD, "/missing", O_RDONLY) = -1 ENOENT (No such file or directory)`,
		`read(3</f>, ..., 10) = ? ERESTARTSYS (To be restarted if SA_RESTART is set)`,
		`stat("/f", {st_mode=S_IFREG|0644, st_size=1}) = 0`,
		`mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3</f>, 0) = 0x7f0000000000`,
		`newfstatat(AT_FDCWD, "/f", {st_mode=S_IFREG|0644}, 0) = 0`,
	}
	var lines, want []string
	line := func(body string) {
		lines = append(lines, fmt.Sprintf("100  10:00:00.%06d %s <0.000001>", len(lines)+1, body))
	}
	for i, body := range kept {
		line(body)
		want = append(want, body[:strings.IndexByte(body, '(')])
		if i < len(dropped) {
			line(dropped[i])
		}
	}
	set := map[string]bool{}
	for _, call := range want {
		if !ioCalls[call] && !behaviorCalls[call] {
			t.Fatalf("%s is outside the extraction set", call)
		}
		set[call] = true
	}
	if len(set) != len(ioCalls)+len(behaviorCalls) {
		t.Fatalf("the lines cover %d calls, the extraction set has %d", len(set), len(ioCalls)+len(behaviorCalls))
	}

	text := strings.Join(lines, "\n") + "\n"
	for _, opts := range []Options{{}, {Strict: true}} {
		c, err := ParseCase(testID, strings.NewReader(text), opts)
		if err != nil {
			t.Fatalf("ParseCase %+v: %v", opts, err)
		}
		f, skipped, err := FollowReader(testID, strings.NewReader(text), opts)
		if err != nil || skipped != 0 {
			t.Fatalf("FollowReader %+v: %d dropped lines, %v", opts, skipped, err)
		}
		for name, c := range map[string]*trace.Case{"ParseCase": c, "FollowReader": f} {
			var got []string
			for _, e := range c.Events {
				got = append(got, e.Call)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v kept\n  %v\nwant\n  %v", name, opts, got, want)
			}
		}
	}
}

func TestEventsStrictErrors(t *testing.T) {
	// Resumed without unfinished.
	recs := parseRecords(t, `100  10:00:00.000003 <... read resumed> ..., 10) = 10 <0.000001>`)
	if _, err := convertRecords(testID, recs, Options{Strict: true}); err == nil {
		t.Errorf("strict mode accepted dangling resumed record")
	}
	if _, err := convertRecords(testID, recs, Options{}); err != nil {
		t.Errorf("lenient mode rejected dangling resumed record: %v", err)
	}
	// Unfinished never resumed.
	recs = parseRecords(t, `100  10:00:00.000003 read(3</f>, <unfinished ...>`)
	if _, err := convertRecords(testID, recs, Options{Strict: true}); err == nil {
		t.Errorf("strict mode accepted dangling unfinished record")
	}
	// Two outstanding calls for one pid.
	recs = parseRecords(t,
		`100  10:00:00.000001 read(3</f>, <unfinished ...>`,
		`100  10:00:00.000002 write(4</g>, <unfinished ...>`,
	)
	if _, err := convertRecords(testID, recs, Options{Strict: true}); err == nil {
		t.Errorf("strict mode accepted two outstanding calls for one pid")
	}
}

func TestEventsMismatchedResumeCall(t *testing.T) {
	recs := parseRecords(t,
		`100  10:00:00.000001 read(3</f>, <unfinished ...>`,
		`100  10:00:00.000002 <... write resumed> ..., 10) = 10 <0.000001>`,
	)
	if _, err := convertRecords(testID, recs, Options{Strict: true}); err == nil {
		t.Errorf("strict mode accepted mismatched resumed call name")
	}
	events, err := convertRecords(testID, recs, Options{})
	if err != nil || len(events) != 0 {
		t.Errorf("lenient mode: events=%v err=%v", events, err)
	}
}

// The parsed case owns its event slice for the life of the log, so the
// slice is exactly as long as the events that survived: records merged
// into an unfinished/resumed pair, failed calls, calls outside the
// extraction set and non-call records leave no capacity behind. Both
// the batch and the live path build the case this way.
func TestParsedCaseHasNoSlack(t *testing.T) {
	text := strings.Join([]string{
		`100  10:00:00.000001 read(3</a>, <unfinished ...>`,
		`200  10:00:00.000002 openat(AT_FDCWD, "/missing", O_RDONLY) = -1 ENOENT (No such file or directory) <0.000008>`,
		`100  10:00:00.000003 <... read resumed> ..., 20) = 20 <0.000003>`,
		`200  10:00:00.000004 mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3</f>, 0) = 0x7f0000000000 <0.000002>`,
		`200  10:00:00.000005 write(1</dev/pts/7>, ..., 50) = 50 <0.000111>`,
		`200  10:00:00.000006 +++ exited with 0 +++`,
	}, "\n") + "\n"
	c, err := ParseCase(testID, strings.NewReader(text), Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, dropped, err := FollowReader(testID, strings.NewReader(text), Options{})
	if err != nil || dropped != 0 {
		t.Fatalf("FollowReader: %d dropped, %v", dropped, err)
	}
	for name, c := range map[string]*trace.Case{"ParseCase": c, "FollowReader": f} {
		if len(c.Events) != 2 {
			t.Fatalf("%s: %d events, want 2 (the merged read and the write)", name, len(c.Events))
		}
		if cap(c.Events) != len(c.Events) {
			t.Errorf("%s: cap(Events) = %d, len %d: the case pins slack", name, cap(c.Events), len(c.Events))
		}
	}
}
