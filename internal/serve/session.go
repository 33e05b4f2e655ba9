// Package serve is the live-ingestion service layer: long-lived named
// sessions, each tailing a trace directory through the fault-tolerant
// follower into a bounded-backpressure queue and a checkpointed fold.
// Sessions are crash-safe: every epoch the fold atomically persists its
// pre-Finalize aggregates plus the folded CaseID set, and on restart a
// session resumes from that checkpoint, skipping files already folded —
// the final artifacts are byte-identical to an uninterrupted run.
package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// SessionConfig is the durable per-session configuration, persisted as
// session.json inside the session's state directory so a restarted
// daemon can rebuild the session exactly.
type SessionConfig struct {
	Name     string `json:"name"`
	TraceDir string `json:"trace_dir"`
	// Policy is the backpressure overflow policy: "block" (default) or
	// "shed-oldest".
	Policy string `json:"policy,omitempty"`
	// Budget is the hard in-flight case budget; 0 means
	// source.DefaultLiveBudget.
	Budget int `json:"budget,omitempty"`
	// Every is the checkpoint epoch size in cases; 0 means 64.
	Every int `json:"every,omitempty"`
	// Shards is the fold parallelism; 0 means GOMAXPROCS.
	Shards int `json:"shards,omitempty"`
	// MapDepth is the CallTopDirs mapping depth; 0 means 2.
	MapDepth int `json:"map_depth,omitempty"`
	// PollMS, GraceMS, StallMS override the follower's poll cadence,
	// emit grace and stall timeout, in milliseconds; 0 keeps the
	// follower defaults.
	PollMS  int `json:"poll_ms,omitempty"`
	GraceMS int `json:"grace_ms,omitempty"`
	StallMS int `json:"stall_ms,omitempty"`
}

func (c *SessionConfig) policy() (source.Policy, error) { return source.ParsePolicy(c.Policy) }

func (c *SessionConfig) mapping() pm.Mapping {
	depth := c.MapDepth
	if depth <= 0 {
		depth = 2
	}
	return pm.CallTopDirs{Depth: depth}
}

func (c *SessionConfig) every() int {
	if c.Every <= 0 {
		return 64
	}
	return c.Every
}

func (c *SessionConfig) validate() error {
	if err := validName(c.Name); err != nil {
		return err
	}
	if c.TraceDir == "" {
		return fmt.Errorf("serve: session %q: trace_dir not set", c.Name)
	}
	if _, err := c.policy(); err != nil {
		return err
	}
	if c.Budget < 0 || c.Every < 0 || c.Shards < 0 || c.MapDepth < 0 {
		return fmt.Errorf("serve: session %q: negative knob", c.Name)
	}
	return nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty session name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: session name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("serve: session name %q not allowed", name)
	}
	return nil
}

// SessionState is a session's lifecycle position.
type SessionState string

const (
	StateRunning  SessionState = "running"
	StateDraining SessionState = "draining"
	StateDone     SessionState = "done"    // drained; final artifacts on disk
	StateAborted  SessionState = "aborted" // hard-stopped; checkpoint is the survivor
	StateFailed   SessionState = "failed"  // fold error
)

// maxFaultLog bounds the per-session fault ring buffer.
const maxFaultLog = 64

// Session is one live ingestion pipeline: tailer → sink → bounded Live
// queue → checkpointed fold, with a scoped symbol table so dropping the
// session releases its string vocabulary. Recoverable faults (stalls,
// strict parse failures, unreadable files) land in the session fault
// log, not in the fold's error stream: a fault never poisons the
// artifacts.
type Session struct {
	cfg  SessionConfig
	dir  string // state directory (checkpoint + session.json)
	m    pm.Mapping
	syms *intern.Table

	live   *source.Live
	tailer *strace.Tailer

	mu           sync.Mutex
	state        SessionState
	faults       []string
	seen         map[trace.CaseID]bool // pushed or checkpointed: dedupe guard
	lastProgress time.Time
	ckptCases    int
	res          *core.StreamResult
	foldErr      error

	view  core.DurableView
	cache artifactCache

	foldDone  chan struct{}
	drainOnce sync.Once
	abortOnce sync.Once
	wdStop    chan struct{}
}

// WatchdogError is the typed fault the per-session watchdog records
// when a running session has made no fold progress for its window.
type WatchdogError struct {
	Name  string
	Quiet time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("serve: session %s: no fold progress for %s", e.Name, e.Quiet.Round(time.Second))
}

// Temporary marks the watchdog signal recoverable — a stalled session
// keeps serving queries from its last durable state.
func (e *WatchdogError) Temporary() bool { return true }

// newSession builds and starts the pipeline. dir must exist and hold
// session.json already; resume recovery happens unconditionally (a
// fresh session simply has no checkpoint yet).
func newSession(cfg SessionConfig, dir string, watchdog time.Duration) (*Session, error) {
	pol, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = source.DefaultLiveBudget
	}
	s := &Session{
		cfg:          cfg,
		dir:          dir,
		m:            cfg.mapping(),
		syms:         intern.NewTable(),
		live:         source.NewLive(budget, pol),
		state:        StateRunning,
		seen:         make(map[trace.CaseID]bool),
		lastProgress: time.Now(),
		foldDone:     make(chan struct{}),
		wdStop:       make(chan struct{}),
	}

	// Crash recovery: the checkpoint's Seen set tells us which trace
	// files were fully folded. They are skipped at the tailer, deduped
	// at the sink, and filtered once more inside the checkpointed fold
	// (belt and braces — each layer alone suffices).
	ckpt := filepath.Join(dir, core.DefaultCheckpointName)
	var skip []string
	if prev, err := snapshot.ReadFile(ckpt, s.m); err == nil {
		s.ckptCases = len(prev.Seen)
		for _, id := range prev.Seen {
			s.seen[id] = true
			skip = append(skip, id.FileName())
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("serve: session %s: corrupt checkpoint: %w", cfg.Name, err)
	}

	fopts := strace.FollowOptions{Options: strace.Options{Syms: s.syms}}
	if cfg.PollMS > 0 {
		fopts.Poll = time.Duration(cfg.PollMS) * time.Millisecond
	}
	if cfg.GraceMS > 0 {
		fopts.Grace = time.Duration(cfg.GraceMS) * time.Millisecond
	}
	if cfg.StallMS > 0 {
		fopts.StallTimeout = time.Duration(cfg.StallMS) * time.Millisecond
	}
	s.tailer = strace.TailDir(cfg.TraceDir, sessionSink{s: s}, fopts)
	s.tailer.SkipFiles(skip)

	go s.fold()
	s.tailer.Start()
	if watchdog > 0 {
		go s.watchdog(watchdog)
	}
	return s, nil
}

// fold runs the checkpointed analysis until the live source finishes
// (drain) or is closed (abort).
func (s *Session) fold() {
	defer close(s.foldDone)
	res, err := core.AnalyzeStreamCheckpointed(s.live, s.m, s.cfg.Shards, false, core.CheckpointOptions{
		Dir:    s.dir,
		Every:  s.cfg.every(),
		Resume: true,
		View:   &s.view,
		OnEpoch: func(cases int) {
			s.mu.Lock()
			s.ckptCases = cases
			s.lastProgress = time.Now()
			s.mu.Unlock()
		},
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.foldErr = err
		if errors.Is(err, source.ErrClosed) {
			s.state = StateAborted
		} else {
			s.state = StateFailed
		}
		return
	}
	s.res = res
	s.state = StateDone
}

// watchdog records a typed fault whenever a running session goes a full
// window without fold progress. It exits with the fold.
func (s *Session) watchdog(window time.Duration) {
	ticker := time.NewTicker(window)
	defer ticker.Stop()
	for {
		select {
		case <-s.foldDone:
			return
		case <-s.wdStop:
			return
		case <-ticker.C:
			s.mu.Lock()
			quiet := time.Since(s.lastProgress)
			stalled := s.state == StateRunning && quiet >= window
			s.mu.Unlock()
			if stalled {
				s.recordFault(&WatchdogError{Name: s.cfg.Name, Quiet: quiet})
			}
		}
	}
}

// sessionSink routes the tailer into the session: completed cases into
// the bounded queue (deduped against recovery's seen set), recoverable
// faults into the fault log — never into the fold's error stream.
type sessionSink struct{ s *Session }

func (k sessionSink) Push(c *trace.Case) error { return k.s.push(c) }
func (k sessionSink) Fail(err error)           { k.s.recordFault(err) }

// push is the dedupe-guarded enqueue shared by the tailer sink and the
// HTTP ingest path.
func (s *Session) push(c *trace.Case) error {
	s.mu.Lock()
	if s.seen[c.ID] {
		s.mu.Unlock()
		return nil
	}
	s.seen[c.ID] = true
	s.lastProgress = time.Now()
	s.mu.Unlock()
	return s.live.Push(c)
}

func (s *Session) recordFault(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.faults) == maxFaultLog {
		copy(s.faults, s.faults[1:])
		s.faults = s.faults[:maxFaultLog-1]
	}
	s.faults = append(s.faults, err.Error())
}

// Ingest feeds one case from a byte stream (the HTTP ingest path) under
// follow-mode line discipline. It reports the events ingested and
// whether an unterminated final line was dropped.
func (s *Session) Ingest(id trace.CaseID, r io.Reader) (events, dropped int, err error) {
	c, dropped, err := strace.FollowReader(id, r, strace.Options{Syms: s.syms})
	if err != nil {
		return 0, dropped, err
	}
	if err := s.push(c); err != nil {
		return 0, dropped, err
	}
	return len(c.Events), dropped, nil
}

// Drain finishes the session gracefully: the tailer flushes every file
// it knows from the records already complete, the queue is sealed, and
// the fold runs to EOF — writing the final checkpoint. Blocks until the
// artifacts are durable. Idempotent.
func (s *Session) Drain() error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		if s.state == StateRunning {
			s.state = StateDraining
		}
		s.mu.Unlock()
		s.tailer.Drain()
		s.live.Finish()
	})
	<-s.foldDone
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.foldErr
}

// Abort hard-stops the session: the queue is closed (producers and the
// fold wake immediately; Close never waits for a wedged producer), the
// tailer abandons its files, and in-flight work past the last
// checkpoint is discarded. The checkpoint on disk is the recovery
// point. Idempotent; safe after Drain (then a no-op on a finished
// pipeline).
func (s *Session) Abort() {
	s.abortOnce.Do(func() {
		close(s.wdStop)
		s.live.Close()
		s.tailer.Stop()
	})
	<-s.foldDone
}

// State reports the lifecycle position.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Result returns the final artifacts after a successful Drain.
func (s *Session) Result() (*core.StreamResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res == nil {
		return nil, fmt.Errorf("serve: session %s: no final result (state %s)", s.cfg.Name, s.state)
	}
	return s.res, nil
}

// Info is the queryable session status.
type Info struct {
	Name         string           `json:"name"`
	State        SessionState     `json:"state"`
	Cases        int              `json:"cases"` // covered by the last checkpoint
	Pushed       uint64           `json:"pushed"`
	Shed         uint64           `json:"shed"`
	Resident     int              `json:"resident"`
	PeakResident int              `json:"peak_resident"`
	Policy       string           `json:"policy"`
	Budget       int              `json:"budget"`
	Tailer       strace.TailStats `json:"tailer"`
	Faults       []string         `json:"faults,omitempty"`
	LastProgress time.Time        `json:"last_progress"`
}

// Info snapshots the session's counters and fault log.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	pol, _ := s.cfg.policy()
	budget := s.cfg.Budget
	if budget <= 0 {
		budget = source.DefaultLiveBudget
	}
	return Info{
		Name:         s.cfg.Name,
		State:        s.state,
		Cases:        s.ckptCases,
		Pushed:       s.live.Pushed(),
		Shed:         s.live.Shed(),
		Resident:     s.live.Resident(),
		PeakResident: s.live.PeakResident(),
		Policy:       pol.String(),
		Budget:       budget,
		Tailer:       s.tailer.Stats(),
		Faults:       append([]string(nil), s.faults...),
		LastProgress: s.lastProgress,
	}
}

// ErrUnknownArtifact is returned by Artifact for a kind it does not
// serve.
var ErrUnknownArtifact = errors.New("serve: unknown artifact (want dfg, stats, variants or behavior)")

// artifactKinds renders each query artifact from a fold's artifacts.
var artifactKinds = map[string]func(*core.StreamResult) []byte{
	"dfg": func(r *core.StreamResult) []byte {
		return []byte(render.RenderText(r.DFG, r.Stats, nil))
	},
	"stats": func(r *core.StreamResult) []byte {
		return []byte(render.StatsTable(r.Stats))
	},
	"variants": func(r *core.StreamResult) []byte {
		var b []byte
		for _, v := range r.ActivityLog.Variants() {
			b = fmt.Appendf(b, "%4d× %s\n", v.Mult, v.Seq)
		}
		return b
	},
	"behavior": func(r *core.StreamResult) []byte {
		return []byte(r.Behavior.RenderText())
	},
}

// Artifact returns a query artifact rendered from the session's most
// recent durable state. Kinds: "dfg", "stats", "variants", "behavior";
// any other kind fails with ErrUnknownArtifact.
//
// The state comes from memory: the fold publishes each generation —
// the number of cases the checkpoint covers — through its DurableView
// once the checkpoint write has succeeded, and after Drain the view
// still holds the last one. Each (generation, kind) is rendered once
// and cached; concurrent queries of one pair wait for that render.
// The checkpoint file is read only while the view holds nothing
// durable: before a fresh session's first checkpoint (os.ErrNotExist),
// while a recovered session's fold is still loading its checkpoint, and
// after a failed write. The returned bytes are shared and must not be
// modified.
func (s *Session) Artifact(kind string) ([]byte, error) {
	body, _, err := s.artifact(kind)
	return body, err
}

// artifact is Artifact plus the generation the body reflects.
func (s *Session) artifact(kind string) ([]byte, int, error) {
	render, ok := artifactKinds[kind]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownArtifact, kind)
	}
	// A cached generation is served without waiting for a checkpoint
	// write in progress: until that write succeeds it is still the most
	// recent durable state.
	if gen, ok := s.view.Generation(); ok {
		if body, ok := s.cache.cached(gen, kind); ok {
			return body, gen, nil
		}
	}
	// Rendering reads the fold's state, so it runs under the view's read
	// lock. A query that finds the pair already rendering waits for it
	// under that lock too, which cannot deadlock: the render it waits for
	// holds a read lock of its own and needs nothing else.
	var body []byte
	var gen int
	if s.view.Read(func(res *core.StreamResult, g int) {
		gen = g
		body = s.cache.get(g, kind, func() []byte { return render(res) })
	}) {
		return body, gen, nil
	}
	res, err := core.MergeSnapshotFiles(s.m, filepath.Join(s.dir, core.DefaultCheckpointName))
	if err != nil {
		return nil, 0, err
	}
	return render(res), res.Cases, nil
}

// artifactCache holds the rendered artifacts of one generation.
type artifactCache struct {
	mu    sync.Mutex
	gen   int
	kinds map[string]*rendering
}

// rendering is one cached artifact; done closes once body is set.
type rendering struct {
	done chan struct{}
	body []byte
}

// get returns the artifact of (gen, kind), calling render on the first
// query of the pair while later queries wait for it. Another generation
// replaces the cached one; callers pass the current generation, which
// only grows.
func (c *artifactCache) get(gen int, kind string, render func() []byte) []byte {
	c.mu.Lock()
	if c.kinds == nil || gen != c.gen {
		c.gen, c.kinds = gen, make(map[string]*rendering)
	}
	r := c.kinds[kind]
	if r != nil {
		c.mu.Unlock()
		<-r.done
		return r.body
	}
	r = &rendering{done: make(chan struct{})}
	c.kinds[kind] = r
	c.mu.Unlock()
	defer close(r.done)
	r.body = render()
	return r.body
}

// cached returns the artifact of (gen, kind) if it is cached or being
// rendered, waiting for the render.
func (c *artifactCache) cached(gen int, kind string) ([]byte, bool) {
	c.mu.Lock()
	r := c.kinds[kind]
	if c.gen != gen {
		r = nil
	}
	c.mu.Unlock()
	if r == nil {
		return nil, false
	}
	<-r.done
	return r.body, true
}
