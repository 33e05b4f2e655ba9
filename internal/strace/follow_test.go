package strace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"stinspector/internal/faultfs"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// faultDir adapts *faultfs.FS to TailFS (interface return type on Open;
// faultfs cannot import strace, so the match is structural).
type faultDir struct{ fs *faultfs.FS }

func (d faultDir) Names() ([]string, error)           { return d.fs.Names() }
func (d faultDir) FileID(name string) (uint64, error) { return d.fs.FileID(name) }
func (d faultDir) Open(name string) (TailFile, error) {
	f, err := d.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// collectSink gathers pushed cases and failed errors.
type collectSink struct {
	mu    sync.Mutex
	cases []*trace.Case
	errs  []error
}

func (s *collectSink) Push(c *trace.Case) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cases = append(s.cases, c)
	return nil
}

func (s *collectSink) Fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errs = append(s.errs, err)
}

func (s *collectSink) snapshot() ([]*trace.Case, []error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*trace.Case(nil), s.cases...), append([]error(nil), s.errs...)
}

// renderCases renders each case of the log to its trace-file bytes,
// keyed by file name, plus the batch-parsed ground truth per case.
func renderCases(t *testing.T, log *trace.EventLog) (map[string][]byte, map[string]*trace.Case) {
	t.Helper()
	files := make(map[string][]byte)
	want := make(map[string]*trace.Case)
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		name := c.ID.FileName()
		files[name] = append([]byte(nil), buf.Bytes()...)
		parsed, err := ParseCase(c.ID, bytes.NewReader(buf.Bytes()), Options{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = parsed
	}
	return files, want
}

// fastOpts are follow options tuned for test latency, not production.
func fastOpts() FollowOptions {
	return FollowOptions{
		Options:      Options{Strict: true},
		Poll:         2 * time.Millisecond,
		Grace:        15 * time.Millisecond,
		StallTimeout: 30 * time.Second,
	}
}

// waitCases polls until the sink holds n cases or the deadline passes.
func waitCases(t *testing.T, s *collectSink, n int, d time.Duration) []*trace.Case {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		cases, _ := s.snapshot()
		if len(cases) >= n {
			return cases
		}
		time.Sleep(2 * time.Millisecond)
	}
	cases, errs := s.snapshot()
	t.Fatalf("timed out waiting for %d cases: have %d (errors: %v)", n, len(cases), errs)
	return nil
}

func assertCasesEqual(t *testing.T, got []*trace.Case, want map[string]*trace.Case) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emitted %d cases, want %d", len(got), len(want))
	}
	for _, c := range got {
		w, ok := want[c.ID.FileName()]
		if !ok {
			t.Errorf("unexpected case %s", c.ID)
			continue
		}
		if !reflect.DeepEqual(c.Events, w.Events) {
			t.Errorf("case %s: events diverged from batch parse (%d vs %d events)", c.ID, len(c.Events), len(w.Events))
		}
	}
}

// TestFollowReaderCompleteAndPartial: a full stream round-trips to the
// batch parse; a stream cut mid-line drops exactly the truncated tail,
// never a partial record.
func TestFollowReaderCompleteAndPartial(t *testing.T) {
	log := synth.Log("fr", 1, 12, 5)
	files, want := renderCases(t, log)
	for name, content := range files {
		id, err := trace.ParseCaseID(name)
		if err != nil {
			t.Fatal(err)
		}
		c, dropped, err := FollowReader(id, bytes.NewReader(content), Options{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 0 {
			t.Errorf("complete stream dropped %d lines", dropped)
		}
		if !reflect.DeepEqual(c.Events, want[name].Events) {
			t.Error("complete stream diverged from batch parse")
		}

		// Cut mid-line: everything after the last newline is a truncated
		// record and must be dropped, not parsed.
		cut := bytes.LastIndexByte(content[:len(content)-1], '\n')
		partial := content[:cut+1+3] // 3 bytes into the final line
		pc, dropped, err := FollowReader(id, bytes.NewReader(partial), Options{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 1 {
			t.Errorf("cut stream: dropped = %d, want 1", dropped)
		}
		if len(pc.Events) >= len(c.Events)+1 {
			t.Errorf("cut stream produced %d events from %d full-stream events", len(pc.Events), len(c.Events))
		}
	}
}

// TestTailerLiveAppend: files written incrementally while the tailer
// runs are emitted complete and identical to a batch parse.
func TestTailerLiveAppend(t *testing.T) {
	dir := t.TempDir()
	log := synth.Log("liv", 6, 20, 11)
	files, want := renderCases(t, log)

	sink := &collectSink{}
	tailer := TailDir(dir, sink, fastOpts())
	tailer.Start()
	defer tailer.Stop()

	app := faultfs.NewAppender(dir, 5, faultfs.Plan{Chunk: 64, Gap: time.Millisecond})
	var wg sync.WaitGroup
	for name, content := range files {
		wg.Add(1)
		go func(name string, content []byte) {
			defer wg.Done()
			if err := app.Replay(name, content); err != nil {
				t.Errorf("replay %s: %v", name, err)
			}
		}(name, content)
	}
	wg.Wait()

	got := waitCases(t, sink, len(files), 15*time.Second)
	tailer.Stop()
	assertCasesEqual(t, got, want)
	if _, errs := sink.snapshot(); len(errs) != 0 {
		t.Errorf("unexpected sink errors: %v", errs)
	}
}

// TestTailerFaultMatrix is the core of the robustness matrix: every
// write-side fault plan crossed with read-side faults must still
// converge to cases byte-identical to the fault-free batch parse,
// under -race, with the planned faults actually firing.
func TestTailerFaultMatrix(t *testing.T) {
	log := synth.Log("flt", 5, 25, 3)
	files, want := renderCases(t, log)

	scenarios := []struct {
		name   string
		plan   faultfs.Plan
		faults faultfs.Faults
		fired  func(a *faultfs.Appender) bool
	}{
		{
			name:   "delayed-appends-short-reads",
			plan:   faultfs.Plan{Chunk: 37, Gap: time.Millisecond},
			faults: faultfs.Faults{ShortReadMax: 11},
			fired:  func(a *faultfs.Appender) bool { return a.Chunks.Load() > 1 },
		},
		{
			name:   "truncate-open-faults",
			plan:   faultfs.Plan{Chunk: 53, TruncateEveryN: 4, Gap: time.Millisecond},
			faults: faultfs.Faults{OpenFailEveryN: 3},
			fired:  func(a *faultfs.Appender) bool { return a.Truncations.Load() > 0 },
		},
		{
			name:   "rotate-read-faults",
			plan:   faultfs.Plan{Chunk: 53, RotateEveryN: 5, Gap: time.Millisecond},
			faults: faultfs.Faults{ReadFailEveryN: 7},
			fired:  func(a *faultfs.Appender) bool { return a.Rotations.Load() > 0 },
		},
		{
			name:   "everything-at-once",
			plan:   faultfs.Plan{Chunk: 41, TruncateEveryN: 5, RotateEveryN: 7, Gap: time.Millisecond},
			faults: faultfs.Faults{OpenFailEveryN: 4, ReadFailEveryN: 9, ShortReadMax: 13},
			fired: func(a *faultfs.Appender) bool {
				return a.Truncations.Load() > 0 && a.Rotations.Load() > 0
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(dir, 17, sc.faults)
			sink := &collectSink{}
			tailer := newTailer(faultDir{fs: ffs}, sink, fastOpts())
			tailer.Start()
			defer tailer.Stop()

			app := faultfs.NewAppender(dir, 29, sc.plan)
			var wg sync.WaitGroup
			for name, content := range files {
				wg.Add(1)
				go func(name string, content []byte) {
					defer wg.Done()
					if err := app.Replay(name, content); err != nil {
						t.Errorf("replay %s: %v", name, err)
					}
				}(name, content)
			}
			wg.Wait()
			if !sc.fired(app) {
				t.Fatalf("scenario %s did not fire its planned faults", sc.name)
			}

			got := waitCases(t, sink, len(files), 20*time.Second)
			tailer.Stop()
			assertCasesEqual(t, got, want)
		})
	}
}

// TestTailerRotationDetected: an explicit rotation under a held handle
// is detected via identity change and the rewritten file wins.
func TestTailerRotationDetected(t *testing.T) {
	dir := t.TempDir()
	log := synth.Log("rot", 1, 10, 13)
	files, want := renderCases(t, log)
	var name string
	var content []byte
	for n, c := range files {
		name, content = n, c
	}

	// First identity: a prefix with no exit record, so the tailer holds
	// the file open waiting for more.
	cut := bytes.IndexByte(content, '\n')
	for i := 0; i < 3; i++ {
		cut += bytes.IndexByte(content[cut+1:], '\n') + 1
	}
	if err := os.WriteFile(filepath.Join(dir, name), content[:cut+1], 0o644); err != nil {
		t.Fatal(err)
	}

	sink := &collectSink{}
	tailer := TailDir(dir, sink, fastOpts())
	tailer.Start()
	defer tailer.Stop()
	time.Sleep(50 * time.Millisecond) // let it catch up on the prefix

	// Rotate: remove and rewrite the complete case under a new inode.
	if err := os.Remove(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
		t.Fatal(err)
	}

	got := waitCases(t, sink, 1, 10*time.Second)
	tailer.Stop()
	assertCasesEqual(t, got, want)
	if st := tailer.Stats(); st.Rotations == 0 {
		t.Errorf("rotation not detected: %+v", st)
	}
}

// TestTailerTruncationDetected: shrinking the file below the read
// offset restarts the case from zero.
func TestTailerTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	log := synth.Log("trc", 1, 10, 17)
	files, want := renderCases(t, log)
	var name string
	var content []byte
	for n, c := range files {
		name, content = n, c
	}
	path := filepath.Join(dir, name)

	cut := len(content) * 3 / 4
	if err := os.WriteFile(path, content[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	sink := &collectSink{}
	tailer := TailDir(dir, sink, fastOpts())
	tailer.Start()
	defer tailer.Stop()
	time.Sleep(50 * time.Millisecond)

	// Shrink far below the tailer's offset, then rewrite completely.
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the shrink be observed
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := waitCases(t, sink, 1, 10*time.Second)
	tailer.Stop()
	assertCasesEqual(t, got, want)
	if st := tailer.Stats(); st.Truncations == 0 {
		t.Errorf("truncation not detected: %+v", st)
	}
}

// TestTailerDrainEmitsPartial: Drain flushes a file with no exit record
// from its complete records and drops the unterminated tail, counted.
func TestTailerDrainEmitsPartial(t *testing.T) {
	dir := t.TempDir()
	log := synth.Log("drn", 1, 10, 19)
	files, _ := renderCases(t, log)
	var name string
	var content []byte
	for n, c := range files {
		name, content = n, c
	}

	// Strip the exit line and leave an unterminated final line.
	cut := bytes.LastIndexByte(content[:len(content)-1], '\n')
	partial := append(append([]byte(nil), content[:cut+1]...), []byte("123 not-a-complete")...)
	if err := os.WriteFile(filepath.Join(dir, name), partial, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := fastOpts()
	opts.Strict = false // the synthetic tail must not Fail the sink
	sink := &collectSink{}
	tailer := TailDir(dir, sink, opts)
	tailer.Start()
	time.Sleep(50 * time.Millisecond)
	tailer.Drain()

	cases, errs := sink.snapshot()
	if len(cases) != 1 {
		t.Fatalf("drain emitted %d cases, want 1 (errors: %v)", len(cases), errs)
	}
	if len(cases[0].Events) == 0 {
		t.Error("drained case lost its complete records")
	}
	if st := tailer.Stats(); st.PartialDrops != 1 {
		t.Errorf("partial drops = %d, want 1", st.PartialDrops)
	}
}

// TestTailerStall: a silent unterminated file surfaces a typed,
// temporary stallError and keeps being tailed.
func TestTailerStall(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s_h_1.st"), []byte("100  10:00:00.000000 read(3</f>, ..., 8) = 8 <0.000010>\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.StallTimeout = 30 * time.Millisecond
	sink := &collectSink{}
	tailer := TailDir(dir, sink, opts)
	tailer.Start()
	defer tailer.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, errs := sink.snapshot()
		var stall *stallError
		for _, err := range errs {
			if errors.As(err, &stall) {
				if stall.Name != "s_h_1.st" {
					t.Errorf("stall names %q", stall.Name)
				}
				if !stall.Temporary() {
					t.Error("stallError not Temporary")
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stallError surfaced; errors: %v", errs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTailerSkipFiles: recovery's skip list suppresses re-ingestion.
func TestTailerSkipFiles(t *testing.T) {
	dir := t.TempDir()
	log := synth.Log("skp", 2, 8, 23)
	files, want := renderCases(t, log)
	names := make([]string, 0, len(files))
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}

	sink := &collectSink{}
	tailer := TailDir(dir, sink, fastOpts())
	tailer.SkipFiles(names[:1])
	tailer.Start()
	got := waitCases(t, sink, 1, 10*time.Second)
	time.Sleep(50 * time.Millisecond) // a second emit would land by now
	tailer.Stop()
	cases, _ := sink.snapshot()
	if len(cases) != 1 {
		t.Fatalf("emitted %d cases, want 1 (skip list ignored)", len(cases))
	}
	if got[0].ID.FileName() == names[0] {
		t.Errorf("skipped file %s was emitted", names[0])
	}
	if !reflect.DeepEqual(got[0].Events, want[got[0].ID.FileName()].Events) {
		t.Error("non-skipped case diverged")
	}
}

// TestTailerStopLeaksNothing: Stop mid-follow abandons silently and
// releases every goroutine and file handle.
func TestTailerStopLeaksNothing(t *testing.T) {
	dir := t.TempDir()
	log := synth.Log("lk", 8, 10, 31)
	files, _ := renderCases(t, log)
	for name, content := range files {
		// No exit record reaches disk: every file stays mid-follow.
		cut := bytes.IndexByte(content, '\n')
		if err := os.WriteFile(filepath.Join(dir, name), content[:cut+1], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}

	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs()
	for trial := 0; trial < 4; trial++ {
		sink := &collectSink{}
		tailer := TailDir(dir, sink, fastOpts())
		tailer.Start()
		time.Sleep(20 * time.Millisecond)
		tailer.Stop()
		if cases, _ := sink.snapshot(); len(cases) != 0 {
			t.Fatalf("Stop emitted %d cases", len(cases))
		}
	}

	var goroutinesAfter int
	for i := 0; i < 100; i++ {
		goroutinesAfter = runtime.NumGoroutine()
		if goroutinesAfter <= goroutinesBefore {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if goroutinesAfter > goroutinesBefore {
		t.Errorf("tailer goroutines leaked: %d before, %d after", goroutinesBefore, goroutinesAfter)
	}
	if fdsBefore >= 0 {
		if fdsAfter := countFDs(); fdsAfter > fdsBefore {
			t.Errorf("file handles leaked: %d before, %d after", fdsBefore, fdsAfter)
		}
	}
}
