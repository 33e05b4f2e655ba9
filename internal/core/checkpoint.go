package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"stinspector/internal/pm"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/trace"
)

// DefaultCheckpointName is the snapshot filename used when
// CheckpointOptions.Name is empty.
const DefaultCheckpointName = "checkpoint.sts"

// CheckpointOptions configures a durable analysis fold.
type CheckpointOptions struct {
	// Dir is the checkpoint directory (created if missing). Required.
	Dir string
	// Name is the snapshot filename within Dir; empty means
	// DefaultCheckpointName.
	Name string
	// Every bounds how many cases are folded between checkpoint writes;
	// <= 0 writes a single snapshot after the full fold.
	Every int
	// Resume loads an existing snapshot from Dir first and folds only
	// the cases it has not seen. A missing snapshot file is a fresh
	// start, not an error.
	Resume bool
	// OnEpoch, when set, is called after each epoch once the checkpoint
	// on disk covers it — after the epoch's write, or at once for an
	// epoch that folded nothing and so left the checkpoint current —
	// with the total number of cases the checkpoint covers.
	// It runs on the fold goroutine: long-lived callers (the serving
	// layer's watchdog) should only record progress here, not block.
	OnEpoch func(cases int)
	// View, when set, receives the fold's most recent durable state:
	// the resumed checkpoint before anything is folded, then the
	// accumulated state after each successful checkpoint write. Nil
	// leaves the fold as it is without one: no lock, no extra work.
	View *DurableView
}

// DurableView publishes the most recent durable state of a checkpointed
// fold to concurrent readers, so a live query can render the fold's
// artifacts without reading the checkpoint back from disk. The state is
// the fold's own accumulated snapshot, not a copy: the fold write-locks
// the view across each epoch's merge, encode and write, and advances
// the generation only once the write has succeeded, so a reader never
// sees merged state the checkpoint file does not hold. A failed write
// marks the view stale. The zero value publishes nothing and is ready
// to use.
type DurableView struct {
	mu   sync.RWMutex
	snap *snapshot.Snapshot
	// res is snap's finalized artifacts, built by the first Read of a
	// generation (under once) and shared by the rest.
	res  *StreamResult
	once *sync.Once
	// gen is the published generation plus one, or 0 while nothing
	// durable is published. It is written under mu but read without it,
	// so a reader can see which generation is current while a write is
	// in progress.
	gen atomic.Int64
}

// Generation reports the published generation, the number of cases the
// durable state covers, without waiting for a write in progress. ok is
// false while nothing durable is published: before the first write,
// and after a failed one. Generations only grow, also across a resume.
func (v *DurableView) Generation() (gen int, ok bool) {
	g := v.gen.Load()
	return int(g - 1), g > 0
}

// Read calls fn under the read lock with the published state's
// finalized artifacts and its generation, and reports whether anything
// was published. The artifacts are finalized once per generation, as
// MergeSnapshotFiles finalizes the checkpoint file. fn must neither
// modify the result nor keep any part of it past its return: the fold
// merges the next epoch into the aggregates it shares in place.
func (v *DurableView) Read(fn func(res *StreamResult, gen int)) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	g := v.gen.Load()
	if g == 0 {
		return false
	}
	v.once.Do(func() { v.res = resultFromSnapshot(v.snap) })
	fn(v.res, int(g-1))
	return true
}

// begin write-locks the view for an epoch's merge and write.
func (v *DurableView) begin() {
	if v != nil {
		v.mu.Lock()
	}
}

// end publishes s as the next generation if its write succeeded, or
// else marks the view stale (s may hold merged state that never reached
// the disk), and releases the lock begin took.
func (v *DurableView) end(s *snapshot.Snapshot, err error) {
	if v == nil {
		return
	}
	v.res, v.once = nil, new(sync.Once)
	if err == nil {
		v.snap = s
		v.gen.Store(int64(len(s.Seen)) + 1)
	} else {
		v.snap = nil
		v.gen.Store(0)
	}
	v.mu.Unlock()
}

func (o *CheckpointOptions) path() string {
	name := o.Name
	if name == "" {
		name = DefaultCheckpointName
	}
	return filepath.Join(o.Dir, name)
}

// AnalyzeStreamCheckpointed is AnalyzeStreamParallel made durable: the
// fold proceeds in epochs of at most opts.Every cases, and after each
// epoch the accumulated pre-Finalize state — aggregates plus the folded
// CaseID set — is written atomically to the checkpoint file, so a crash
// loses at most one epoch of work. Each epoch is merged into the
// accumulated state in place, at the cost of the epoch; an epoch that
// folds nothing (the stream ended on an epoch boundary) leaves the
// checkpoint already on disk as it is. With opts.Resume the fold first
// loads the checkpoint and skips every case it already covers. With
// opts.View the fold publishes each durable state as it goes.
//
// Because every aggregate merge is exact and the epoch boundaries fall
// on the same deterministic stream positions whatever the crash/resume
// history, the final artifacts — and the final checkpoint bytes — are
// identical to an uninterrupted AnalyzeStreamParallel run at any shard
// count. shards and joinErrors as in AnalyzeStreamParallel; the source
// is not closed.
func AnalyzeStreamCheckpointed(src source.Source, m pm.Mapping, shards int, joinErrors bool, opts CheckpointOptions) (*StreamResult, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: checkpoint directory not set")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	path := opts.path()

	var acc *snapshot.Snapshot
	feed := src
	if opts.Resume {
		prev, err := snapshot.ReadFile(path, m)
		switch {
		case err == nil:
			acc = prev
			// The loaded checkpoint is durable: publish it before the
			// first epoch, which may take long to fill.
			opts.View.begin()
			opts.View.end(acc, nil)
			seen := make(map[trace.CaseID]bool, len(prev.Seen))
			for _, id := range prev.Seen {
				seen[id] = true
			}
			feed = source.FilterCases(src, func(c *trace.Case) bool { return !seen[c.ID] })
		case errors.Is(err, os.ErrNotExist):
			// Fresh start.
		default:
			return nil, err
		}
	}

	limited := &limitSource{src: feed, every: opts.Every}
	var errs []error
	for {
		limited.reset()
		epoch, err := foldEpoch(limited, m, shards, joinErrors)
		if err != nil {
			if !joinErrors {
				return nil, err
			}
			errs = append(errs, err)
		}
		// An epoch that folded nothing — typically the empty final epoch
		// when the case count is a multiple of Every — or whose partial
		// was dropped for errors leaves the state this run already loaded
		// or wrote as it was, so the checkpoint on disk is current and is
		// not rewritten.
		if epoch != nil && (epoch.Cases > 0 || acc == nil) {
			opts.View.begin()
			acc = snapshot.Merge(acc, epoch)
			err := snapshot.WriteFile(path, acc)
			opts.View.end(acc, err)
			if err != nil {
				return nil, err
			}
		}
		if acc != nil && opts.OnEpoch != nil {
			opts.OnEpoch(len(acc.Seen))
		}
		if limited.eof {
			break
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	res := resultFromSnapshot(acc)
	res.PeakResident = source.PeakResident(src)
	return res, nil
}

// AnalyzeStreamSnapshot folds the source like AnalyzeStreamParallel but
// returns the pre-Finalize state as a snapshot instead of finalized
// artifacts — the building block for multi-process fold sharding: each
// process folds its slice of the corpus, writes the snapshot, and the
// files merge (MergeSnapshotFiles, `stinspect -merge-snapshots`) into
// exactly the single-process result. The source is not closed.
func AnalyzeStreamSnapshot(src source.Source, m pm.Mapping, shards int, joinErrors bool) (*snapshot.Snapshot, error) {
	return foldEpoch(src, m, shards, joinErrors)
}

// MergeSnapshotFiles loads snapshot files written by separate fold
// processes, merges them exactly, and finalizes the combined artifacts.
// For snapshots covering a disjoint partition of one corpus the result
// is byte-identical to a single AnalyzeStreamParallel run over the
// whole corpus.
func MergeSnapshotFiles(m pm.Mapping, paths ...string) (*StreamResult, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no snapshot files to merge")
	}
	snaps := make([]*snapshot.Snapshot, len(paths))
	for i, p := range paths {
		s, err := snapshot.ReadFile(p, m)
		if err != nil {
			return nil, fmt.Errorf("merge %s: %w", p, err)
		}
		snaps[i] = s
	}
	return resultFromSnapshot(snapshot.Merge(snaps...)), nil
}

// resultFromSnapshot finalizes a snapshot's aggregates into the
// artifacts AnalyzeStreamParallel reports. The result shares the
// snapshot's aggregates; finalizing leaves the statistics computer as
// it was.
func resultFromSnapshot(s *snapshot.Snapshot) *StreamResult {
	res := &StreamResult{
		ActivityLog: s.Log,
		DFG:         s.DFG,
		Behavior:    s.Behavior,
		Cases:       s.Cases,
		Events:      s.Events,
		Symbols:     s.Stats.Symbols(),
	}
	res.Stats = s.Stats.Finalize()
	return res
}

// foldEpoch runs one sharded fold over the (possibly budgeted) source
// and captures the resulting partial state as a snapshot, with the
// per-shard folded CaseIDs collected alongside the aggregates. It is the
// one fold body: AnalyzeStreamParallel finalizes its snapshot, the
// checkpointed fold merges one per epoch, and AnalyzeStreamSnapshot
// returns it as is.
func foldEpoch(src source.Source, m pm.Mapping, shards int, joinErrors bool) (*snapshot.Snapshot, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	parts := make([]*shardPartial, shards)
	seenByShard := make([][]trace.CaseID, shards)
	for i := range parts {
		parts[i] = newShardPartial(m)
	}
	err := source.ShardedFold(src, shards, 0, joinErrors, func(shard int, c *trace.Case) error {
		seenByShard[shard] = append(seenByShard[shard], c.ID)
		return parts[shard].fold(c)
	})
	if err != nil {
		return nil, err
	}
	s := &snapshot.Snapshot{}
	for _, p := range parts {
		s.Cases += p.cases
		s.Events += p.evs
	}
	for _, ids := range seenByShard {
		s.Seen = append(s.Seen, ids...)
	}
	// Each shard's list is ascending (round-robin over an ascending
	// stream); the combined set sorts into the canonical order.
	sort.Slice(s.Seen, func(i, j int) bool { return s.Seen[i].Less(s.Seen[j]) })
	// The run owns its merged symbol universe: shard 0's table — created
	// fresh for this run, like every partial — survives as the merge
	// target, and shards 1..n remap into it in shard order (for one
	// shard there is nothing to merge at all). The remap preserves
	// strings exactly, so the merged assignment — and therefore every
	// artifact — is byte-identical to folding sequentially.
	run := parts[0]
	for _, p := range parts[1:] {
		p.mergeInto(run)
	}
	s.Log = run.pmB.Finalize()
	s.DFG = run.dfgB.Finalize()
	s.Stats = run.stC
	s.Behavior = run.bh
	return s, nil
}

// limitSource feeds at most every cases per epoch from the wrapped
// source, reporting io.EOF at the budget boundary; reset re-arms it for
// the next epoch. every <= 0 means unbudgeted (one epoch drains the
// stream). Per-case errors pass through without consuming budget, so an
// epoch's case count is exact whatever the error policy. eof records
// whether the underlying stream is truly exhausted.
type limitSource struct {
	src    source.Source
	every  int
	budget int
	eof    bool
}

func (s *limitSource) reset() { s.budget = s.every }

func (s *limitSource) Next() (*trace.Case, error) {
	if s.eof || (s.every > 0 && s.budget <= 0) {
		return nil, io.EOF
	}
	c, err := s.src.Next()
	if err == io.EOF {
		s.eof = true
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	if s.every > 0 {
		s.budget--
	}
	return c, nil
}

// Close is a no-op: the checkpoint engine borrows the caller's source.
func (s *limitSource) Close() error { return nil }
