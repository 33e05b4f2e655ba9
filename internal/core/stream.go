package core

import (
	"sort"

	"stinspector/internal/behavior"
	"stinspector/internal/dfg"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
)

// StreamResult bundles the synthesis artifacts of one bounded-memory
// pass over a case source: the activity-log, the DFG and the Section
// IV-B statistics, plus the ingestion accounting. It is what a
// streaming consumer gets instead of an Inspector — everything
// derivable without random access to the event-log.
type StreamResult struct {
	ActivityLog *pm.Log
	DFG         *dfg.Graph
	Stats       *stats.Stats
	// Behavior is the third folded aggregate: the per-case and
	// merged behavior profile (files touched, commands executed,
	// endpoints contacted) derived from the semantic decoding layer.
	Behavior *behavior.Profile
	// Cases and Events count what the stream delivered.
	Cases, Events int
	// PeakResident is the maximum number of cases that were loaded but
	// not yet consumed at once (0 if the source does not track it) —
	// the observable behind the O(batch) memory guarantee.
	PeakResident int
	// Symbols counts the distinct activity symbols resident in the
	// run's merged activity table (an intern.Local) at finalization.
	// Every run creates that table afresh and drops it with the
	// builders, so the count is a per-run observable. It does not
	// count parsed call names or paths: those live in the parse-side
	// string table (intern.Table.Len for a scoped ingestion pass).
	Symbols int
}

// shardPartial is one shard's builder set: the per-shard state of the
// parallel fold, finalized into a snapshot on its own goroutine once
// the stream is exhausted and joined with the others by snapshot.Merge.
// The activity-log builder and the statistics computer share one
// pm.SymMapper — and therefore one shard-local activity symbol table —
// so every event is mapped exactly once and all per-event counting
// happens on integer keys; the merge remaps the shard-local tables
// into shard 0's. The DFG is not folded: it is a function of the
// activity-log, built once by resultFromSnapshot.
type shardPartial struct {
	sm    *pm.SymMapper
	pmB   *pm.Builder
	stC   *stats.Computer
	bh    *behavior.Profile
	syms  []intern.Sym   // per-case mapping scratch, reused
	seen  []trace.CaseID // the cases fold took, in delivery order
	cases int
	evs   int
}

func newShardPartial(m pm.Mapping) *shardPartial {
	sm := pm.NewSymMapper(m)
	return &shardPartial{
		sm:  sm,
		pmB: pm.NewBuilderSym(sm, pm.BuildOptions{Endpoints: true}),
		stC: stats.NewComputerSym(sm),
		bh:  behavior.New(),
	}
}

func (p *shardPartial) fold(c *trace.Case) error {
	p.seen = append(p.seen, c.ID)
	p.syms = p.sm.MapCase(c, p.syms[:0])
	p.foldMapped(c, p.syms)
	return nil
}

// foldMapped folds one case given its activity symbols, mapped through
// p's SymMapper: the per-case body of every fold in the tree.
func (p *shardPartial) foldMapped(c *trace.Case, syms []intern.Sym) {
	p.cases++
	p.evs += len(c.Events)
	p.pmB.AddMapped(c.ID, syms)
	p.stC.AddMapped(c, syms)
	p.bh.AddCase(c)
}

// snapshot finalizes p into a snapshot: the finalized activity-log, the
// statistics with their spans sorted and the folded CaseIDs in
// ascending order, so snapshot.Merge joins shards by linear merges of
// sorted runs. A batch source delivers each shard an ascending
// subsequence and the sorts find their input in order; a live source
// delivers completion order.
func (p *shardPartial) snapshot() *snapshot.Snapshot {
	p.stC.Sort()
	sort.Slice(p.seen, func(i, j int) bool { return p.seen[i].Less(p.seen[j]) })
	return &snapshot.Snapshot{
		Cases:    p.cases,
		Events:   p.evs,
		Log:      p.pmB.Finalize(),
		Stats:    p.stC,
		Behavior: p.bh,
		Seen:     p.seen,
	}
}

// foldLog is the Inspector's fold: AnalyzeStreamParallel's per-case body
// over a materialized log on one inline shard. The log is mapped up
// front (4 B/event), so the statistics spans are sized exactly before
// any case folds instead of growing by append.
func foldLog(el *trace.EventLog, m pm.Mapping) *StreamResult {
	p := newShardPartial(m)
	syms := make([]intern.Sym, 0, el.NumEvents())
	for _, c := range el.Cases() {
		syms = p.sm.MapCase(c, syms)
	}
	p.stC.Reserve(syms)
	for _, c := range el.Cases() {
		n := len(c.Events)
		p.foldMapped(c, syms[:n])
		syms = syms[n:]
	}
	return resultFromSnapshot(p.snapshot())
}

// AnalyzeStreamParallel consumes a case source in a single pass,
// feeding the incremental activity-log, statistics and behavior
// builders, without the event-log ever being materialized: peak memory
// is the source's resident window plus the (much smaller) aggregates.
// The DFG is built from the finalized activity-log. For a
// source delivering CaseID order — all backend streams do — the
// artifacts are identical to an Inspector's ActivityLog / DFG / Stats /
// Behavior over the same cases, endpoints included.
//
// joinErrors selects the error policy of source.Walk: false aborts on
// the first failing case (lenient ingestion), true skips failing cases
// and returns every failure joined (strace Strict semantics). The
// source is not closed; callers own its lifetime.
//
// The analysis fold is sharded: source.ShardedFold round-robins case
// blocks to shards workers, each owning its own builder set over a
// shard-local symbol table. Each shard finalizes its own snapshot, and
// snapshot.Merge joins them in shard order afterwards — the shard
// tables remapped into shard 0's (itself created fresh for this run),
// the counts folded as integer sums. Because every aggregate merge is
// exact — integer counts and sums, sorted case-list interleaves, sorted
// max-concurrency span runs merged linearly, and a symbol remap that
// preserves strings exactly — the result is byte-identical to the
// sequential fold at every shard count; shard count is a pure
// throughput knob, never observable in the artifacts.
//
// It is foldEpoch, the one fold body in the tree, finalized through
// resultFromSnapshot. shards <= 0 means runtime.GOMAXPROCS(0);
// shards == 1 folds inline with no worker goroutines. There is exactly
// one analysis fold in the tree: the Inspector runs its per-case body
// too, through foldLog.
func AnalyzeStreamParallel(src source.Source, m pm.Mapping, shards int, joinErrors bool) (*StreamResult, error) {
	s, err := foldEpoch(src, m, shards, joinErrors)
	if err != nil {
		return nil, err
	}
	res := resultFromSnapshot(s)
	res.PeakResident = source.PeakResident(src)
	return res, nil
}
