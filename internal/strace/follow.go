package strace

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stinspector/internal/trace"
)

// caseSink receives completed cases and recoverable faults from a Tailer.
// internal/source.Live satisfies it directly; internal/serve wraps one
// to divert faults into a session log.
type caseSink interface {
	// Push hands over a completed case. A Push error (the sink is
	// closed) terminates the tailer's file loop that called it.
	Push(c *trace.Case) error
	// Fail reports a recoverable fault at the stream's current
	// position: a stall, a parse problem under Strict, an unreadable
	// file. The stream continues.
	Fail(err error)
}

// stallError is the typed recoverable error a Tailer surfaces when a
// file has neither grown nor terminated for the configured stall
// timeout. The file stays tailed; the error is a liveness signal, not a
// verdict.
type stallError struct {
	Name  string        // file name within the tailed directory
	Quiet time.Duration // how long the file has been silent
}

func (e *stallError) Error() string {
	return fmt.Sprintf("strace: follow: %s stalled (no growth for %s, no exit record)", e.Name, e.Quiet.Round(time.Millisecond))
}

// Temporary marks the stall recoverable: the tailer keeps following.
func (e *stallError) Temporary() bool { return true }

// fileError is the typed recoverable error for a file the tailer must
// give up on (unparseable name, terminal open failure). The rest of the
// directory keeps streaming.
type fileError struct {
	Name string
	Err  error
}

func (e *fileError) Error() string {
	return fmt.Sprintf("strace: follow: %s: %v", e.Name, e.Err)
}

func (e *fileError) Unwrap() error { return e.Err }

// FollowOptions configures follow-mode tailing. The embedded Options
// govern record-to-event conversion exactly as in batch ingestion.
type FollowOptions struct {
	Options

	// Poll is the directory-scan and growth-check cadence.
	// Default 50ms.
	Poll time.Duration
	// Grace is how long a file must stay quiet after its exit record
	// before the case is emitted — absorbing writers that flush the
	// exit line before their final buffers. Default 100ms.
	Grace time.Duration
	// StallTimeout is how long a file may go without growth or an exit
	// record before a stallError is surfaced (and the timer re-arms).
	// 0 disables stall detection. Default 30s.
	StallTimeout time.Duration
}

func (o *FollowOptions) setDefaults() {
	if o.Poll <= 0 {
		o.Poll = 50 * time.Millisecond
	}
	if o.Grace <= 0 {
		o.Grace = 100 * time.Millisecond
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 30 * time.Second
	}
}

// TailStats is a snapshot of a Tailer's fault and progress counters.
type TailStats struct {
	Cases        uint64 `json:"cases"`         // cases emitted
	Rotations    uint64 `json:"rotations"`     // name rebound to a new file identity
	Truncations  uint64 `json:"truncations"`   // size shrank below the read offset
	Reopens      uint64 `json:"reopens"`       // handle reopened (faults, rotation, truncation)
	Stalls       uint64 `json:"stalls"`        // stallErrors surfaced
	PartialDrops uint64 `json:"partial_drops"` // unterminated final lines dropped at emit
	ParseSkips   uint64 `json:"parse_skips"`   // unparseable complete lines skipped
}

// Tailer follows a directory of growing trace files and pushes each
// completed case (one file = one case, named by its CaseID) into a
// caseSink. Recovery invariants:
//
//   - A record is emitted only from a complete, newline-terminated
//     line; a partial final line is buffered and re-tried, never pushed
//     truncated. At emit time an unterminated remainder is dropped and
//     counted.
//   - Truncation (size below the read offset) and rotation (the name's
//     identity changed) both restart the file from offset 0 with fresh
//     state; the writer contract is that rebuilt content supersedes
//     what was partially read.
//   - Open and read failures retry with capped exponential backoff plus
//     deterministic jitter; they never kill the tailer.
//   - Stalls surface as typed recoverable stallErrors via caseSink.Fail.
//   - An unparseable complete line, or one over 4 MiB, is skipped and
//     counted in ParseSkips; under Strict the first such line of each
//     read also surfaces via caseSink.Fail as a *ParseError in a fileError.
//     ParseCase and FollowReader frame lines with the same code, so
//     they skip (or, under Strict, name) exactly the same lines.
//
// A file completes when its exit record has been read, the reader has
// caught up to EOF with no partial line pending, and the file has been
// quiet for Grace. Drain completes remaining files from the records
// already parseable; Stop abandons them.
type Tailer struct {
	fs   TailFS
	sink caseSink
	opts FollowOptions

	stop  chan struct{} // hard cancel: abandon everything
	drain chan struct{} // soft finish: emit what is complete

	mu       sync.Mutex
	started  bool
	stopped  bool
	draining bool
	known    map[string]bool // discovered (or skipped) file names
	wg       sync.WaitGroup

	cases        atomic.Uint64
	rotations    atomic.Uint64
	truncations  atomic.Uint64
	reopens      atomic.Uint64
	stalls       atomic.Uint64
	partialDrops atomic.Uint64
	parseSkips   atomic.Uint64
}

// TailDir returns a Tailer over the OS directory dir.
func TailDir(dir string, sink caseSink, opts FollowOptions) *Tailer {
	return newTailer(osDir{dir: dir}, sink, opts)
}

// newTailer returns a Tailer over an explicit TailFS (the seam the
// fault-injection matrix uses).
func newTailer(fs TailFS, sink caseSink, opts FollowOptions) *Tailer {
	opts.setDefaults()
	return &Tailer{
		fs:    fs,
		sink:  sink,
		opts:  opts,
		stop:  make(chan struct{}),
		drain: make(chan struct{}),
		known: make(map[string]bool),
	}
}

// SkipFiles marks file names as already consumed, so recovery does not
// re-ingest cases a checkpoint has folded. Must be called before Start.
func (t *Tailer) SkipFiles(names []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range names {
		t.known[n] = true
	}
}

// Start launches the directory scanner. It returns immediately.
func (t *Tailer) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return
	}
	t.started = true
	t.wg.Add(1)
	go t.scan()
}

// Drain asks every file loop to finish from what it has — emitting
// cases from the complete records parsed so far, exit record or not —
// and waits for them. Unterminated final lines are dropped and counted.
// Safe to call once; Stop may still follow.
func (t *Tailer) Drain() {
	t.mu.Lock()
	if !t.draining {
		t.draining = true
		close(t.drain)
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// Stop hard-cancels the tailer: file loops abandon their state without
// emitting, and Stop waits for them to exit. Idempotent.
func (t *Tailer) Stop() {
	t.mu.Lock()
	if !t.stopped {
		t.stopped = true
		close(t.stop)
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// Stats snapshots the tailer's counters.
func (t *Tailer) Stats() TailStats {
	return TailStats{
		Cases:        t.cases.Load(),
		Rotations:    t.rotations.Load(),
		Truncations:  t.truncations.Load(),
		Reopens:      t.reopens.Load(),
		Stalls:       t.stalls.Load(),
		PartialDrops: t.partialDrops.Load(),
		ParseSkips:   t.parseSkips.Load(),
	}
}

// sleep waits d or until stop/drain fires; it reports false on stop.
func (t *Tailer) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.stop:
		return false
	case <-t.drain:
		return true
	case <-timer.C:
		return true
	}
}

func (t *Tailer) stopping() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

func (t *Tailer) drainRequested() bool {
	select {
	case <-t.drain:
		return true
	default:
		return false
	}
}

// scan polls the directory for new trace files and spawns one follow
// loop per file. On drain it performs one final sweep (so files created
// moments before the drain are still flushed) and exits.
func (t *Tailer) scan() {
	defer t.wg.Done()
	for {
		if t.stopping() {
			return
		}
		final := t.drainRequested()
		names, err := t.fs.Names()
		if err == nil {
			for _, name := range names {
				if !isTraceName(name) {
					continue
				}
				t.mu.Lock()
				seen := t.known[name]
				if !seen {
					t.known[name] = true
					t.wg.Add(1)
				}
				t.mu.Unlock()
				if !seen {
					go t.followFile(name)
				}
			}
		}
		// Listing errors are transient by contract: retry next poll.
		if final {
			return
		}
		if !t.sleep(t.opts.Poll) {
			return
		}
	}
}

// fileRand derives the per-file deterministic jitter stream from the
// file name alone.
func (t *Tailer) fileRand(name string) *rand.Rand {
	h := fnv.New64a()
	io.WriteString(h, name)
	return rand.New(rand.NewSource(1 ^ int64(h.Sum64())))
}

// backoff sleeps the exponential delay for the given attempt, capped at
// 20 polls (1s at the default 50ms poll), with ±50% deterministic
// jitter; false means stop was requested.
func (t *Tailer) backoff(rnd *rand.Rand, attempt int) bool {
	maxDelay := 20 * t.opts.Poll
	d := 10 * time.Millisecond << uint(min(attempt, 16))
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	jittered := d/2 + time.Duration(rnd.Int63n(int64(d)))
	timer := time.NewTimer(jittered)
	defer timer.Stop()
	select {
	case <-t.stop:
		return false
	case <-timer.C:
		return true
	}
}

// fileTail is the per-file follow state.
type fileTail struct {
	name    string
	f       TailFile
	offset  int64       // bytes consumed from the current identity
	lr      *lineReader // the file's framer and parsed records
	lastNew time.Time   // last time bytes arrived (or the file opened)
}

// reset drops all parse state — the truncation/rotation restart.
func (ft *fileTail) reset() {
	ft.offset = 0
	ft.lr.reset()
	ft.lastNew = time.Now()
}

// followFile tails one trace file to completion. One file = one case.
func (t *Tailer) followFile(name string) {
	defer t.wg.Done()

	id, err := trace.ParseCaseID(name)
	if err != nil {
		t.sink.Fail(&fileError{Name: name, Err: err})
		return
	}

	rnd := t.fileRand(name)
	ft := &fileTail{name: name, lr: getLineReader(), lastNew: time.Now()}
	defer func() {
		if ft.f != nil {
			ft.f.Close()
		}
		ft.lr.put()
	}()

	// open (re)establishes the handle and skips already-consumed bytes.
	// If the skip comes up short the file shrank underneath us: restart
	// from zero with fresh state.
	open := func() bool {
		for attempt := 0; ; attempt++ {
			if t.stopping() {
				return false
			}
			f, err := t.fs.Open(name)
			if err == nil {
				if ft.offset > 0 {
					if _, err := io.CopyN(io.Discard, f, ft.offset); err != nil {
						f.Close()
						if errors.Is(err, io.EOF) {
							t.truncations.Add(1)
							ft.reset()
							continue
						}
						t.reopens.Add(1)
						if !t.backoff(rnd, attempt) {
							return false
						}
						continue
					}
				}
				ft.f = f
				return true
			}
			t.reopens.Add(1)
			if !t.backoff(rnd, attempt) {
				return false
			}
		}
	}
	if !open() {
		return
	}

	lastStallCheck := time.Now()
	for {
		if t.stopping() {
			return
		}

		// Rotation: the name now binds a different file. The writer
		// contract (one case per file, rebuilt on rotate) makes the new
		// content authoritative — restart from zero.
		if cur, err := t.fs.FileID(name); err == nil && cur != 0 && ft.f.ID() != 0 && cur != ft.f.ID() {
			ft.f.Close()
			ft.f = nil
			t.rotations.Add(1)
			t.reopens.Add(1)
			ft.reset()
			if !open() {
				return
			}
			continue
		}
		// Truncation: the open file shrank below what we consumed.
		if size, err := ft.f.Size(); err == nil && size < ft.offset {
			ft.f.Close()
			ft.f = nil
			t.truncations.Add(1)
			t.reopens.Add(1)
			ft.reset()
			if !open() {
				return
			}
			continue
		}

		// Read what is available now. os-like handles return io.EOF at
		// the current end and deliver new bytes on later reads.
		caughtUp := false
		n, skips, first, err := ft.lr.readFrom(ft.f)
		if n > 0 {
			ft.offset += int64(n)
			ft.lastNew = time.Now()
			lastStallCheck = ft.lastNew
			t.parseSkips.Add(uint64(skips))
			if first != nil && t.opts.Strict {
				t.sink.Fail(&fileError{Name: name, Err: first})
			}
		}
		switch {
		case err == nil:
			// More may be immediately available; loop without sleeping.
			continue
		case errors.Is(err, io.EOF):
			caughtUp = true
		default:
			// Transient read fault: retry on the same handle if the
			// error says so, otherwise reopen at the current offset.
			var tmp interface{ Temporary() bool }
			if !(errors.As(err, &tmp) && tmp.Temporary()) {
				ft.f.Close()
				ft.f = nil
				t.reopens.Add(1)
				if !open() {
					return
				}
			}
			if !t.sleep(t.opts.Poll) {
				return
			}
			continue
		}

		// Caught up. Emit if complete, drain if asked, else wait.
		if ft.lr.sawExit && caughtUp && time.Since(ft.lastNew) >= t.opts.Grace {
			t.emit(id, ft)
			return
		}
		if t.drainRequested() && caughtUp {
			if len(ft.lr.records) > 0 {
				t.emit(id, ft)
			}
			return
		}
		if st := t.opts.StallTimeout; st > 0 && !ft.lr.sawExit && time.Since(ft.lastNew) >= st && time.Since(lastStallCheck) >= st {
			lastStallCheck = time.Now()
			t.stalls.Add(1)
			t.sink.Fail(&stallError{Name: name, Quiet: time.Since(ft.lastNew).Round(time.Millisecond)})
		}
		if !t.sleep(t.opts.Poll) {
			return
		}
	}
}

// emit converts the file's records into a case and pushes it. An
// unterminated buffered remainder is dropped and counted here — the
// single place a partial line can leave the pipeline, and it leaves as
// a counter, not a record.
func (t *Tailer) emit(id trace.CaseID, ft *fileTail) {
	if dropped, _ := ft.lr.end(false); dropped {
		t.partialDrops.Add(1)
	}
	c, err := ft.lr.buildCase(id, t.opts.Options)
	if err != nil {
		t.sink.Fail(&fileError{Name: ft.name, Err: err})
		return
	}
	if err := t.sink.Push(c); err != nil {
		return
	}
	t.cases.Add(1)
}

// FollowReader ingests one case from a growing byte stream (an HTTP
// request body, a pipe) under follow-mode line discipline: complete
// lines parse as they arrive, and at EOF an unterminated final line is
// dropped — never emitted truncated. The returned count is every line
// dropped: the unterminated final line plus the complete lines skipped
// as unparseable or longer than 4 MiB. Under Strict the first skipped
// line is instead returned as a *ParseError. The Tailer and ParseCase
// run the same framer and skip the same lines; only ParseCase parses
// an unterminated final line.
func FollowReader(id trace.CaseID, r io.Reader, opts Options) (*trace.Case, int, error) {
	lr := getLineReader()
	defer lr.put()
	dropped, partial, err := lr.readAll(r, opts.Strict, false)
	if err != nil {
		return nil, 0, err
	}
	if partial {
		dropped++
	}
	c, err := lr.buildCase(id, opts)
	return c, dropped, err
}
