package archive

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stinspector/internal/source"
	"stinspector/internal/trace"
)

func randLog(seed int64, nCases, maxEvents int) *trace.EventLog {
	rng := rand.New(rand.NewSource(seed))
	calls := []string{"read", "write", "openat", "lseek", "pread64", "pwrite64"}
	paths := []string{"/usr/lib/libc.so.6", "/scratch/ssf/test", "/dev/pts/7", "/etc/passwd", ""}
	var cases []*trace.Case
	for i := 0; i < nCases; i++ {
		id := trace.CaseID{CID: "arc", Host: "hostX", RID: 1000 + i}
		n := rng.Intn(maxEvents)
		evs := make([]trace.Event, n)
		start := time.Duration(rng.Int63n(int64(24 * time.Hour)))
		for j := range evs {
			start += time.Duration(rng.Intn(100000)) * time.Nanosecond
			evs[j] = trace.Event{
				PID:   2000 + rng.Intn(4),
				Call:  calls[rng.Intn(len(calls))],
				Start: start,
				Dur:   time.Duration(rng.Intn(1e6)) * time.Nanosecond,
				FP:    paths[rng.Intn(len(paths))],
				Size:  int64(rng.Intn(1<<21)) - 1,
			}
		}
		cases = append(cases, trace.NewCase(id, evs))
	}
	return trace.MustNewEventLog(cases...)
}

func logsEqual(t *testing.T, got, want *trace.EventLog) {
	t.Helper()
	if got.NumCases() != want.NumCases() {
		t.Fatalf("cases = %d, want %d", got.NumCases(), want.NumCases())
	}
	for _, wc := range want.Cases() {
		gc := got.Case(wc.ID)
		if gc == nil {
			t.Fatalf("case %s missing", wc.ID)
		}
		if len(gc.Events) != len(wc.Events) {
			t.Fatalf("case %s: %d events, want %d", wc.ID, len(gc.Events), len(wc.Events))
		}
		if len(wc.Events) > 0 && !reflect.DeepEqual(gc.Events, wc.Events) {
			t.Fatalf("case %s events differ", wc.ID)
		}
	}
}

// readAll drains every case of r with the given decode parallelism: the
// materializing form the tests compare against.
func readAll(r *Reader, parallelism int) (*trace.EventLog, error) {
	src := r.Stream(parallelism, 0)
	defer src.Close()
	return source.Drain(src, false)
}

// newReaderAt opens an image through the ReadAt path (pooled section
// buffers), as opposed to NewReaderBytes' zero-copy slices.
func newReaderAt(data []byte) (*Reader, error) {
	return NewReader(bytes.NewReader(data), int64(len(data)))
}

// TestRoundTripPropertyMany round-trips many shapes through the ReadAt
// path; TestV2RoundTripPropertyMany covers the zero-copy path.
func TestRoundTripPropertyMany(t *testing.T) {
	for seed := int64(2); seed < 22; seed++ {
		want := randLog(seed, 1+int(seed)%5, 80)
		var f bytes.Buffer
		if err := WriteV2(&f, want); err != nil {
			t.Fatalf("seed %d: WriteV2: %v", seed, err)
		}
		r, err := newReaderAt(f.Bytes())
		if err != nil {
			t.Fatalf("seed %d: NewReader: %v", seed, err)
		}
		got, err := readAll(r, 0)
		if err != nil {
			t.Fatalf("seed %d: readAll: %v", seed, err)
		}
		logsEqual(t, got, want)
	}
}

// TestDeterministicBytes: the crash-safe file writer lays down exactly
// the bytes of the stream writer, every time.
func TestDeterministicBytes(t *testing.T) {
	log := randLog(5, 4, 100)
	var want bytes.Buffer
	if err := WriteV2(&want, log); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"a.sta", "b.sta"} {
		path := filepath.Join(dir, name)
		if err := WriteFileV2(path, log); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: archive bytes are not deterministic", name)
		}
	}
}

func TestRandomAccessSingleCase(t *testing.T) {
	want := randLog(7, 8, 150)
	var f bytes.Buffer
	if err := WriteV2(&f, want); err != nil {
		t.Fatal(err)
	}
	r, err := newReaderAt(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCases() != want.NumCases() {
		t.Fatalf("NumCases = %d", r.NumCases())
	}
	if r.NumEvents() != want.NumEvents() {
		t.Fatalf("NumEvents = %d, want %d", r.NumEvents(), want.NumEvents())
	}
	id := want.Cases()[3].ID
	c, err := r.ReadCase(id)
	if err != nil {
		t.Fatalf("ReadCase: %v", err)
	}
	if !reflect.DeepEqual(c.Events, want.Case(id).Events) {
		t.Errorf("single case read differs")
	}
	if _, err := r.ReadCase(trace.CaseID{CID: "nope", Host: "x", RID: 0}); err == nil {
		t.Errorf("absent case read succeeded")
	}
}

// TestEmptyLog: an empty archive opens through the path-level source
// and yields no cases.
func TestEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.sta")
	if err := WriteFileV2(path, trace.MustNewEventLog()); err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := source.Drain(src, false)
	if err != nil || got.NumCases() != 0 {
		t.Errorf("Drain = %v, %v", got, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	log := randLog(9, 3, 120)
	var f bytes.Buffer
	if err := WriteV2(&f, log); err != nil {
		t.Fatal(err)
	}
	orig := f.Bytes()

	// Flip one byte in every position class and expect either an open
	// error or a read error, never silent corruption.
	flipAndCheck := func(pos int, what string) {
		t.Helper()
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0xff
		r, err := newReaderAt(mut)
		if err != nil {
			return // detected at open
		}
		if _, err := readAll(r, 0); err == nil {
			t.Errorf("corruption at %s (offset %d) not detected", what, pos)
		}
	}
	flipAndCheck(headerSize+10, "case section")
	flipAndCheck(len(orig)-footerSize-3, "index")

	// Truncations.
	for _, cut := range []int{1, footerSize, len(orig) / 2, len(orig) - 10} {
		r, err := newReaderAt(orig[:len(orig)-cut])
		if err != nil {
			continue
		}
		if _, err := readAll(r, 0); err == nil {
			t.Errorf("truncation by %d bytes not detected", cut)
		}
	}

	// Bad magics.
	mut := append([]byte(nil), orig...)
	copy(mut, "NOPE")
	if _, err := newReaderAt(mut); err == nil {
		t.Errorf("bad magic accepted")
	}
	mut = append([]byte(nil), orig...)
	copy(mut[len(mut)-4:], "NOPE")
	if _, err := newReaderAt(mut); err == nil {
		t.Errorf("bad footer magic accepted")
	}

	// Tiny file.
	if _, err := newReaderAt(orig[:8]); err == nil {
		t.Errorf("tiny file accepted")
	}
}

// TestUnsortedCaseRejected: the one-shot writer refuses a case out of
// start order (TestV2UnsortedCaseRejected covers the incremental Add).
func TestUnsortedCaseRejected(t *testing.T) {
	c := &trace.Case{ID: trace.CaseID{CID: "u", Host: "h", RID: 1}, Events: []trace.Event{
		{CID: "u", Host: "h", RID: 1, Call: "a", Start: 2},
		{CID: "u", Host: "h", RID: 1, Call: "b", Start: 1},
	}}
	log := trace.MustNewEventLog(c)
	var f bytes.Buffer
	if err := WriteV2(&f, log); err == nil {
		t.Errorf("unsorted case accepted by writer")
	}
}

func TestCompression(t *testing.T) {
	// Dictionary + delta encoding should make the archive much smaller
	// than a naive fixed-width encoding (~60 bytes/event).
	log := randLog(11, 4, 2000)
	var f bytes.Buffer
	if err := WriteV2(&f, log); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(f.Len()) / float64(log.NumEvents())
	if perEvent > 40 {
		t.Errorf("encoding too large: %.1f bytes/event", perEvent)
	}
}

// v1Image hand-assembles an empty archive in the retired v1 layout:
// header, a zero-case index, and the footer (index offset, index CRC,
// footer magic).
func v1Image() []byte {
	var w buf
	w.raw([]byte(magicV1))
	w.u32(1)
	idx := []byte{0}
	w.raw(idx)
	w.u64(headerSize)
	w.u32(checksum(idx))
	w.raw([]byte("XATS"))
	return w.bytes()
}

// TestV1Rejected: a v1 archive is not corrupt, it is retired. Every
// way of opening one fails with ErrV1, whose message names the format
// and the remedy, never with a CorruptError.
func TestV1Rejected(t *testing.T) {
	full := v1Image()
	path := filepath.Join(t.TempDir(), "old.sta")
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	opens := map[string]func() error{
		"NewReader header only": func() error { _, err := newReaderAt(full[:headerSize]); return err },
		"NewReader":             func() error { _, err := newReaderAt(full); return err },
		"NewReaderBytes":        func() error { _, err := NewReaderBytes(full); return err },
		"Open":                  func() error { _, err := Open(path); return err },
		"OpenSource":            func() error { _, err := OpenSource(path, Options{}); return err },
	}
	for name, open := range opens {
		err := open()
		if !errors.Is(err, ErrV1) {
			t.Errorf("%s: err = %v, want ErrV1", name, err)
		}
		var ce *CorruptError
		if errors.As(err, &ce) {
			t.Errorf("%s: v1 reported as corrupt: %v", name, err)
		}
	}
	for _, want := range []string{"v1", "re-archive"} {
		if !strings.Contains(ErrV1.Error(), want) {
			t.Errorf("ErrV1 message %q does not mention %q", ErrV1, want)
		}
	}
}
