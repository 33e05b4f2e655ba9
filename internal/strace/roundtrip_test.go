package strace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stinspector/internal/trace"
)

// randEvents generates a plausible random event stream for one case.
func randEvents(rng *rand.Rand, id trace.CaseID, n int) []trace.Event {
	calls := []string{"read", "write", "pread64", "pwrite64", "openat", "lseek", "close", "fsync"}
	paths := []string{
		"/usr/lib/x86_64-linux-gnu/libc.so.6",
		"/etc/passwd",
		"/scratch/ssf/test",
		"/scratch/fpp/test.00000042",
		"/dev/pts/7",
	}
	events := make([]trace.Event, n)
	start := 9 * time.Hour
	for i := range events {
		start += time.Duration(1+rng.Intn(5000)) * time.Microsecond
		call := calls[rng.Intn(len(calls))]
		size := trace.SizeUnknown
		if transferCalls[call] {
			size = int64(rng.Intn(1 << 20))
		}
		events[i] = trace.Event{
			PID:   id.RID + 12,
			Call:  call,
			Start: start,
			Dur:   time.Duration(1+rng.Intn(300)) * time.Microsecond,
			FP:    paths[rng.Intn(len(paths))],
			Size:  size,
		}
	}
	return events
}

// Property: writing events as strace text and parsing them back yields the
// same events (timestamps have microsecond resolution in the text format,
// which the generator respects).
func TestWriterParserRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		id := trace.CaseID{CID: "rt", Host: "h1", RID: 100 + trial}
		want := randEvents(rng, id, 1+rng.Intn(60))

		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range want {
			w.writeEvent(e)
		}
		if err := w.err; err != nil {
			t.Fatalf("writer: %v", err)
		}

		c, err := ParseCase(id, &buf, Options{Strict: true})
		if err != nil {
			t.Fatalf("trial %d: ParseCase: %v", trial, err)
		}
		got := c.Events
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d events back, want %d", trial, len(got), len(want))
		}
		for i := range want {
			// close/fsync/lseek/openat come back without size; the
			// writer emitted them without one too.
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d event %d:\n got %+v\nwant %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// Property: the unfinished/resumed rendering merges back to the same event.
func TestUnfinishedPairRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	id := trace.CaseID{CID: "u", Host: "h1", RID: 1}
	for trial := 0; trial < 40; trial++ {
		e := randEvents(rng, id, 1)[0]
		if !transferCalls[e.Call] {
			e.Call = "read"
			e.Size = int64(rng.Intn(4096))
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteUnfinishedPair(e)
		if err := w.err; err != nil {
			t.Fatalf("writer: %v", err)
		}
		c, err := ParseCase(id, &buf, Options{Strict: true})
		if err != nil {
			t.Fatalf("ParseCase: %v\n%s", err, buf.String())
		}
		if len(c.Events) != 1 {
			t.Fatalf("merged to %d events, want 1", len(c.Events))
		}
		if !reflect.DeepEqual(c.Events[0], e) {
			t.Fatalf("merge mismatch:\n got %+v\nwant %+v", c.Events[0], e)
		}
	}
}

func TestWriteDirReadDir(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	var cases []*trace.Case
	for rid := 0; rid < 4; rid++ {
		id := trace.CaseID{CID: "d", Host: "hostA", RID: 9000 + rid}
		cases = append(cases, trace.NewCase(id, randEvents(rng, id, 20)))
	}
	want := trace.MustNewEventLog(cases...)
	if err := WriteDir(dir, want); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("wrote %d files, want 4", len(entries))
	}
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".st") {
			t.Errorf("unexpected file %s", ent.Name())
		}
	}

	got, err := readDir(dir, Options{Strict: true})
	if err != nil {
		t.Fatalf("readDir: %v", err)
	}
	if got.NumCases() != want.NumCases() || got.NumEvents() != want.NumEvents() {
		t.Fatalf("round trip: %d cases / %d events, want %d / %d",
			got.NumCases(), got.NumEvents(), want.NumCases(), want.NumEvents())
	}
	for _, wc := range want.Cases() {
		gc := got.Case(wc.ID)
		if gc == nil {
			t.Fatalf("case %s missing", wc.ID)
		}
		if !reflect.DeepEqual(gc.Events, wc.Events) {
			t.Errorf("case %s differs after round trip", wc.ID)
		}
	}
}

func TestReadDirErrors(t *testing.T) {
	if _, err := readDir(t.TempDir(), Options{}); err == nil {
		t.Errorf("empty dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "badname.st"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDir(dir, Options{}); err == nil {
		t.Errorf("bad file name accepted")
	}
}

func TestParseFileNameConvention(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a_host1_9042.st")
	content := `9054  08:55:54.153994 read(3</usr/lib/libc.so.6>, ..., 832) = 832 <0.000203>` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ParseFile(path, Options{Strict: true})
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if c.ID != (trace.CaseID{CID: "a", Host: "host1", RID: 9042}) {
		t.Errorf("case id = %v", c.ID)
	}
	if len(c.Events) != 1 || c.Events[0].PID != 9054 {
		t.Errorf("events = %+v", c.Events)
	}
}
