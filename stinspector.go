// Package stinspector is a Go implementation of the methodology of
// "Inspection of I/O Operations from System Call Traces using
// Directly-Follows-Graph" (Sankaran, Zhukov, Frings, Bientinesi; SC-W
// 2024, arXiv:2408.07378): it parses strace system-call traces into
// event-logs, abstracts events into activities through user-defined
// mappings, synthesizes Directly-Follows-Graphs annotated with I/O
// statistics (relative duration, bytes moved, process data rate,
// max-concurrency), and compares program configurations through
// statistics-based or partition-based graph coloring.
//
// The package is a facade over the implementation packages under
// internal/; it exposes everything a downstream user needs:
//
//	in, err := stinspector.FromStraceDir("traces/", stinspector.ParseOptions{})
//	in = in.FilterPath("/usr/lib").WithMapping(stinspector.CallTopDirs{Depth: 2})
//	st := in.Stats()
//	fmt.Println(stinspector.RenderDOT(in.DFG(), st, stinspector.StatisticsColoring{Stats: st}))
//
// The repository also contains full simulations of the paper's
// experimental substrate (an IOR-compatible workload engine over a
// GPFS-like filesystem model) and an experiment harness regenerating
// every figure of the paper; see cmd/stbench and internal/experiments.
package stinspector

import (
	"errors"
	"io"

	"stinspector/internal/archive"
	"stinspector/internal/behavior"
	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/dxt"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// Event model (Section III-IV of the paper).
type (
	// Event is one system-call record: the pid, call, start, dur, fp
	// and size of e = [cid, host, rid, pid, call, start, dur, fp,
	// size]. The cid, host and rid are its case's CaseID.
	Event = trace.Event
	// CaseID identifies a case (one trace file): cid, host, rid.
	CaseID = trace.CaseID
	// Case is the time-ordered event sequence of one process.
	Case = trace.Case
	// EventLog is a set of cases.
	EventLog = trace.EventLog
	// Interval is a (start, end, case) tuple used by timelines and
	// max-concurrency.
	Interval = trace.Interval
)

// Process-mining layer (Section IV).
type (
	// Activity is a named entity events map to, e.g. "read:/usr/lib".
	Activity = pm.Activity
	// Mapping is the partial function f : E ⇀ A_f.
	Mapping = pm.Mapping
	// MappingFunc adapts a function to Mapping.
	MappingFunc = pm.MappingFunc
	// CallTopDirs is the paper's mapping f̂ (call + top directories).
	CallTopDirs = pm.CallTopDirs
	// CallFileName maps to call + trailing path components (Figure 4).
	CallFileName = pm.CallFileName
	// EnvMapping abstracts paths by site variables ($SCRATCH, ...).
	EnvMapping = pm.EnvMapping
	// PrefixVar is one prefix-to-variable rule of an EnvMapping.
	PrefixVar = pm.PrefixVar
	// ActivityLog is the multiset of activity traces L_f(C).
	ActivityLog = pm.Log
)

// Behavior layer: the third mergeable aggregate of the fold, derived
// from the semantic syscall decoding of internal/strace/decode.go.
type (
	// BehaviorProfile holds per-case and merged behavior profiles —
	// files opened/read/written/deleted/renamed, commands executed,
	// network endpoints contacted — with an exact Merge.
	BehaviorProfile = behavior.Profile
)

// DFG layer (Section IV-A, IV-C).
type (
	// DFG is the Directly-Follows-Graph with occurrence counts.
	DFG = dfg.Graph
	// Edge is one directly-follows relation.
	Edge = dfg.Edge
	// Partition classifies nodes/edges as green/red/shared.
	Partition = dfg.Partition
	// Class is a partition color class.
	Class = dfg.Class
	// Footprint is the activity-relation matrix of a DFG.
	Footprint = dfg.Footprint
	// Relation is one footprint cell (→, ←, ∥, #).
	Relation = dfg.Relation
	// FootprintDiff is one structural difference between footprints.
	FootprintDiff = dfg.FootprintDiff
)

// NewFootprint derives the relation matrix of a DFG.
func NewFootprint(g *DFG) *Footprint { return dfg.NewFootprint(g) }

// Statistics layer (Section IV-B).
type (
	// Stats holds the per-activity statistics.
	Stats = stats.Stats
	// ActivityStats are the four statistics of one activity.
	ActivityStats = stats.ActivityStats
)

// Rendering layer.
type (
	// Styler decides node/edge styles for DOT rendering.
	Styler = render.Styler
	// StatisticsColoring shades nodes by relative duration.
	StatisticsColoring = render.StatisticsColoring
	// PartitionColoring colors nodes green/red by partition class.
	PartitionColoring = render.PartitionColoring
)

// Inspector is the synthesis pipeline of the paper's Figure 6.
type Inspector = core.Inspector

// ParseOptions configures strace ingestion. Set Parallelism to bound the
// number of trace files parsed concurrently (0 = GOMAXPROCS, 1 =
// sequential); the merged event-log is deterministic either way. The
// calls kept are fixed by Section III: the completed read/write
// variants, open/close, seek and sync, plus the file mutations, spawns
// and connections the behavior layer decodes. Failed and interrupted
// calls are dropped. A nil Syms interns into the process-wide string
// table; stserve scopes a table to each session instead.
type ParseOptions = strace.Options

// OpenOptions configures the archive and DXT backends, the counterpart
// of ParseOptions for strace: Parallelism bounds the concurrent decode
// or case-construction workers (0 = GOMAXPROCS, 1 = sequential), Window
// the cases resident at once in a stream (0 = 2×workers), and Cases
// restricts an archive to a slice of its case order (nil = every case;
// DXT dumps have no case index and reject a range). The zero value
// reads everything with the defaults. Decoded strings intern into the
// process-wide string table.
type OpenOptions = archive.Options

// CaseRange is the half-open slice [Start, End) of an archive's case
// order; End < 0 means the end of the archive. A range outside the
// archive is an error.
type CaseRange = archive.CaseRange

// FromStraceDir parses every *.st trace file under dir, fanning per-file
// parsing out to opts.Parallelism workers.
func FromStraceDir(dir string, opts ParseOptions) (*Inspector, error) {
	return core.FromStraceDir(dir, opts)
}

// FromDXT ingests a Darshan DXT text dump, the alternative
// instrumentation source of the paper's Section II remark; cid names
// the resulting cases. It is the materializing form of StreamDXT.
func FromDXT(cid string, r io.Reader, opts OpenOptions) (*Inspector, error) {
	return load(StreamDXT(cid, r, opts))
}

// load drains a just-opened source into an Inspector, failing on the
// first bad case, and closes it.
func load(src Source, err error) (*Inspector, error) {
	if err != nil {
		return nil, err
	}
	defer src.Close()
	el, err := source.Drain(src, false)
	if err != nil {
		return nil, err
	}
	return core.FromEventLog(el), nil
}

// FromEventLog wraps an event-log with the default mapping f̂.
func FromEventLog(el *EventLog) *Inspector { return core.FromEventLog(el) }

// WriteArchive consolidates an event-log into a single STA file, the
// counterpart of the paper's HDF5 consolidation step: a columnar,
// indexed layout with a file-level symbol dictionary that readers mmap
// and decode without re-parsing strings.
func WriteArchive(path string, el *EventLog) error { return archive.WriteFileV2(path, el) }

// SplitDFG derives the DFGs of the two subsets of Equation (18) from an
// activity-log: the cases green selects (G) and the rest (R). Feed it a
// fold's ActivityLog and Classify the fold's DFG against the pair to
// compare configurations without the event-log.
func SplitDFG(l *ActivityLog, green func(CaseID) bool) (g, r *DFG) { return dfg.Split(l, green) }

// Classify performs the partition-based classification of Section IV-C.
func Classify(full, green, red *DFG) *Partition { return dfg.Classify(full, green, red) }

// MaxConcurrency computes mc over a set of intervals (Equation 16).
func MaxConcurrency(intervals []Interval) int { return stats.MaxConcurrency(intervals) }

// RenderDOT renders a DFG as a Graphviz document.
func RenderDOT(g *DFG, s *Stats, styler Styler) string { return render.RenderDOT(g, s, styler) }

// RenderText renders a DFG as a deterministic text listing.
func RenderText(g *DFG, s *Stats, p *Partition) string { return render.RenderText(g, s, p) }

// RenderTimeline renders intervals as an ASCII timeline (Figure 5).
func RenderTimeline(intervals []Interval) string { return render.RenderTimeline(intervals) }

// RenderMermaid renders a DFG as a Mermaid flowchart for markdown
// embedding.
func RenderMermaid(g *DFG, s *Stats, styler Styler) string {
	return render.RenderMermaid(g, s, styler)
}

// RenderTimelineSVG renders intervals as a standalone SVG document in
// the style of Figure 5.
func RenderTimelineSVG(intervals []Interval, title string) string {
	return render.RenderTimelineSVG(intervals, title)
}

// Streaming layer: ingest case by case at O(batch) memory instead of
// materializing the event-log (see internal/source).
type (
	// Source streams cases in deterministic CaseID order; see the Next
	// contract on source.Source. Close cancels outstanding work.
	Source = source.Source
	// StreamResult bundles the artifacts of one bounded-memory pass:
	// activity-log, DFG, statistics, and ingestion accounting.
	StreamResult = core.StreamResult
)

// StreamStraceDir streams the *.st[.gz] files under dir: files are
// parsed by opts.Parallelism workers into an ordered window of at most
// opts.Window resident cases.
func StreamStraceDir(dir string, opts ParseOptions) (Source, error) {
	return strace.StreamDir(dir, opts)
}

// StreamArchive streams the cases of an STA file as configured by opts.
// The archive index addresses every case section directly, so an
// opts.Cases slice costs only the cases actually decoded whatever the
// file size — the O(1) case-slicing primitive behind `stinspect -cases
// a:b`. The returned source owns the file; Close releases it.
func StreamArchive(path string, opts OpenOptions) (Source, error) {
	return archive.OpenSource(path, opts)
}

// StreamDXT streams the cases of a Darshan DXT text dump as configured
// by opts. The record text is parsed up front (DXT interleaves cases,
// so grouping needs the whole dump), but the per-case event
// construction runs lazily in the stream's workers. A dump has no case
// index, so opts.Cases must be nil.
func StreamDXT(cid string, r io.Reader, opts OpenOptions) (Source, error) {
	if opts.Cases != nil {
		return nil, errors.New("stinspector: a case range needs an archive input; a DXT dump has no case index")
	}
	records, err := dxt.Parse(r)
	if err != nil {
		return nil, err
	}
	return dxt.Stream(cid, records, opts.Parallelism, opts.Window), nil
}

// FilterStream derives a source keeping only events for which keep
// returns true; cases left empty are dropped, matching EventLog.Filter.
func FilterStream(s Source, keep func(Event) bool) Source {
	return source.Filter(s, keep)
}

// AnalyzeStreamParallel consumes a source in one bounded-memory pass
// and returns the activity-log, DFG and statistics — identical to the
// in-memory pipeline's artifacts. joinErrors selects collect-all
// (Strict) versus fail-fast error semantics; the source is not closed.
// The analysis fold is sharded over concurrent workers (round-robin case
// blocks, one builder set per shard, shard partials merged exactly
// afterwards): the artifacts are byte-identical at every shard count,
// so shards is purely a throughput knob. 0 means GOMAXPROCS, 1 is the
// sequential fold. Combine with the Stream* constructors'
// parallelism/window knobs to scale ingestion and analysis
// independently (stinspect exposes this as -j/-window/-ashards).
func AnalyzeStreamParallel(src Source, m Mapping, shards int, joinErrors bool) (*StreamResult, error) {
	return core.AnalyzeStreamParallel(src, m, shards, joinErrors)
}

// CheckpointOptions configures a durable analysis fold: the checkpoint
// directory and filename, the epoch size in cases between checkpoint
// writes, and whether to resume from an existing checkpoint.
type CheckpointOptions = core.CheckpointOptions

// AnalyzeStreamCheckpointed is AnalyzeStreamParallel made durable: the
// fold checkpoints its pre-Finalize aggregate state atomically every
// opts.Every cases, and with opts.Resume it reloads the checkpoint and
// folds only the cases it has not yet seen. Whatever the crash/resume
// history, the final artifacts and checkpoint bytes are identical to an
// uninterrupted run (stinspect exposes this as the snapshot subcommand).
func AnalyzeStreamCheckpointed(src Source, m Mapping, shards int, joinErrors bool, opts CheckpointOptions) (*StreamResult, error) {
	return core.AnalyzeStreamCheckpointed(src, m, shards, joinErrors, opts)
}

// MergeSnapshots loads STS snapshot files written by separate fold
// processes (the checkpoint engine, `stinspect snapshot`), merges them
// exactly, and finalizes the combined artifacts — byte-identical to a
// single run over the union of the inputs' cases.
func MergeSnapshots(m Mapping, paths ...string) (*StreamResult, error) {
	return core.MergeSnapshotFiles(m, paths...)
}

// NewEnvMapping builds a site-variable path abstraction (the paper's f̄).
func NewEnvMapping(depth int, vars ...PrefixVar) *EnvMapping {
	return pm.NewEnvMapping(depth, vars...)
}
