package core

import (
	"stinspector/internal/behavior"
	"stinspector/internal/dfg"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
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
	// Behavior is the fourth mergeable aggregate: the per-case and
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
	// run's merged symbol table at finalization — the size of the
	// symbol universe this pass owned. Every run creates that table
	// afresh and drops it with the builders, so the count is a per-run
	// observable (compare intern.Table.Len for the parse-side table a
	// scoped ingestion pass owns).
	Symbols int
}

// AnalyzeStream consumes a case source in a single pass, feeding the
// incremental activity-log, DFG and statistics builders, without the
// event-log ever being materialized: peak memory is the source's
// resident window plus the (much smaller) aggregates. For a source
// delivering CaseID order — all backend streams do — the three
// artifacts are identical to the in-memory pipeline's ActivityLog /
// DFG / Stats, endpoints included.
//
// joinErrors selects the error policy of source.Walk: false aborts on
// the first failing case (lenient ingestion), true skips failing cases
// and returns every failure joined (strace Strict semantics). The
// source is not closed; callers own its lifetime.
//
// AnalyzeStream is the one-shard case of AnalyzeStreamParallel: there
// is exactly one analysis fold in the tree.
func AnalyzeStream(src source.Source, m pm.Mapping, joinErrors bool) (*StreamResult, error) {
	return AnalyzeStreamParallel(src, m, 1, joinErrors)
}

// shardPartial is one shard's builder set: the per-shard state of the
// parallel fold, merged in shard order once the stream is exhausted.
// The three builders share one pm.SymMapper — and therefore one
// shard-local activity symbol table — so every event is mapped exactly
// once and all per-event counting happens on integer keys; the
// shard-local tables are remapped into shard 0's at merge.
type shardPartial struct {
	sm    *pm.SymMapper
	pmB   *pm.Builder
	dfgB  *dfg.Builder
	stC   *stats.Computer
	bh    *behavior.Profile
	syms  []intern.Sym // per-case mapping scratch, reused
	cases int
	evs   int
}

func newShardPartial(m pm.Mapping) *shardPartial {
	sm := pm.NewSymMapper(m)
	return &shardPartial{
		sm:   sm,
		pmB:  pm.NewBuilderSym(sm, pm.BuildOptions{Endpoints: true}),
		dfgB: dfg.NewBuilderSym(sm.Acts()),
		stC:  stats.NewComputerSym(sm),
		bh:   behavior.New(),
	}
}

func (p *shardPartial) fold(c *trace.Case) error {
	p.cases++
	p.evs += len(c.Events)
	p.syms = p.sm.MapCase(c, p.syms[:0])
	if seq, ok := p.pmB.AddMapped(c.ID, p.syms); ok {
		p.dfgB.AddSymVariant(seq, 1)
	}
	p.stC.AddMapped(c, p.syms)
	p.bh.AddCase(c)
	return nil
}

// mergeInto folds p's symbolized partial state into dst, remapping p's
// shard-local symbol tables through dst's.
func (p *shardPartial) mergeInto(dst *shardPartial) {
	dst.pmB.MergeFrom(p.pmB)
	dst.dfgB.MergeFrom(p.dfgB)
	dst.stC.Merge(p.stC)
	dst.bh.Merge(p.bh)
}

// AnalyzeStreamParallel is AnalyzeStream with the analysis fold itself
// sharded: source.ShardedFold round-robins case blocks to shards
// workers, each owning its own builder set over a shard-local symbol
// table, and the shard partials are merged in shard order afterwards —
// the shard tables remapped into shard 0's (itself created fresh for
// this run), the counts folded as integer sums. Because every
// aggregate merge is exact — integer counts and sums, sorted case-list
// interleaves, a totally-ordered max-concurrency sweep, and a symbol
// remap that preserves strings exactly — the result is byte-identical to the sequential fold at
// every shard count; shard count is a pure throughput knob, never
// observable in the artifacts. Only the merged survivor materializes
// activity strings, once, at Finalize.
//
// It is foldEpoch, the one fold body in the tree, finalized through
// resultFromSnapshot. shards <= 0 means runtime.GOMAXPROCS(0);
// shards == 1 folds inline with no worker goroutines. joinErrors as in
// AnalyzeStream. The source is not closed.
func AnalyzeStreamParallel(src source.Source, m pm.Mapping, shards int, joinErrors bool) (*StreamResult, error) {
	s, err := foldEpoch(src, m, shards, joinErrors)
	if err != nil {
		return nil, err
	}
	res := resultFromSnapshot(s)
	res.PeakResident = source.PeakResident(src)
	return res, nil
}

// LoadStream materializes a case source into an Inspector with the
// default mapping — the in-memory API reconstructed on top of the
// streaming one. joinErrors as in AnalyzeStream. The source is not
// closed.
func LoadStream(src source.Source, joinErrors bool) (*Inspector, error) {
	el, err := source.Drain(src, joinErrors)
	if err != nil {
		return nil, err
	}
	return FromEventLog(el), nil
}
