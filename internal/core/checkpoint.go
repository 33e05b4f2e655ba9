package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

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
// loads the checkpoint and skips every case it already covers.
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
			acc = snapshot.Merge(acc, epoch)
			if err := snapshot.WriteFile(path, acc); err != nil {
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
// artifacts AnalyzeStreamParallel reports. The snapshot's statistics
// computer is consumed.
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
// and captures the resulting partial state as a snapshot. It is the
// shared core of the checkpointed fold and the snapshot-producing one:
// the same shardPartial machinery as AnalyzeStreamParallel, with the
// per-shard folded CaseIDs collected alongside the aggregates.
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
