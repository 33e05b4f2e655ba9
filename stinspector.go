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
//	fmt.Println(in.RenderDOT(stinspector.StatisticsColoring{Stats: in.Stats()}))
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
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// Event model (Section III-IV of the paper).
type (
	// Event is one system-call record, e = [cid, host, rid, pid,
	// call, start, dur, fp, size].
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

// SizeUnknown marks events whose call transfers no bytes.
const SizeUnknown = trace.SizeUnknown

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

// Behavior layer: the fourth mergeable aggregate, derived from the
// semantic syscall decoding of internal/strace/decode.go.
type (
	// BehaviorProfile holds per-case and merged behavior profiles —
	// files opened/read/written/deleted/renamed, commands executed,
	// network endpoints contacted — with an exact Merge.
	BehaviorProfile = behavior.Profile
	// BehaviorCaseProfile is the queryable per-case (or merged) view.
	BehaviorCaseProfile = behavior.CaseProfile
	// BehaviorEntry is one subject of a case profile with its count.
	BehaviorEntry = behavior.Entry
)

// Virtual start/end activities of every trace.
const (
	Start = pm.Start
	End   = pm.End
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

// Partition color classes.
const (
	Shared = dfg.Shared
	Green  = dfg.Green
	Red    = dfg.Red
)

// Statistics layer (Section IV-B).
type (
	// Stats holds the per-activity statistics.
	Stats = stats.Stats
	// ActivityStats are the four statistics of one activity.
	ActivityStats = stats.ActivityStats
	// Distribution summarizes an activity's duration distribution
	// (median, tail quantiles, tail share).
	Distribution = stats.Distribution
	// CaseSummary is one process's contribution to an activity.
	CaseSummary = stats.CaseSummary
)

// Rendering layer.
type (
	// Styler decides node/edge styles for DOT rendering.
	Styler = render.Styler
	// StatisticsColoring shades nodes by relative duration.
	StatisticsColoring = render.StatisticsColoring
	// PartitionColoring colors nodes green/red by partition class.
	PartitionColoring = render.PartitionColoring
	// PlainStyle renders without coloring.
	PlainStyle = render.PlainStyle
)

// Inspector is the synthesis pipeline of the paper's Figure 6.
type Inspector = core.Inspector

// ParseOptions configures strace ingestion. Set Parallelism to bound the
// number of trace files parsed concurrently (0 = GOMAXPROCS, 1 =
// sequential); the merged event-log is deterministic either way.
type ParseOptions = strace.Options

// OpenOptions configures the archive and DXT backends, the counterpart
// of ParseOptions for strace: Parallelism bounds the concurrent decode
// or case-construction workers (0 = GOMAXPROCS, 1 = sequential), Window
// the cases resident at once in a stream (0 = 2×workers), Syms scopes
// the pass's strings to a symbol table (nil = the process-wide one),
// and Cases restricts an archive to a slice of its case order (nil =
// every case; DXT dumps have no case index and reject a range). The
// zero value reads everything with the defaults.
type OpenOptions = archive.Options

// CaseRange is the half-open slice [Start, End) of an archive's case
// order; End < 0 means the end of the archive. A range outside the
// archive is an error.
type CaseRange = archive.CaseRange

// ErrArchiveV1 reports an archive in the retired STA v1 format, which
// is no longer read: re-archive the original traces.
var ErrArchiveV1 = archive.ErrV1

// SymbolTable is a scoped symbol universe for one ingestion pass. The
// ingestion backends deduplicate every call name, file path and case
// identity string through a symbol table; by default that is a single
// process-wide, append-only table — the right trade for bounded
// vocabularies, but a long-lived service ingesting unbounded distinct
// paths would grow it forever. Scoping a table to a pass
// (NewSymbolTable, set as ParseOptions.Syms or OpenOptions.Syms) keeps
// the pass's vocabulary out of the process-wide table: drop the pass's
// results and the table together and every string it interned becomes
// collectable. Artifacts are byte-identical either way. Len reports
// the resident symbol count.
type SymbolTable = intern.Table

// NewSymbolTable returns an empty per-pass symbol table.
func NewSymbolTable() *SymbolTable { return intern.NewTable() }

// FromStraceDir parses every *.st trace file under dir, fanning per-file
// parsing out to opts.Parallelism workers.
func FromStraceDir(dir string, opts ParseOptions) (*Inspector, error) {
	return core.FromStraceDir(dir, opts)
}

// FromArchive loads a consolidated STA event-log file (or the
// opts.Cases slice of it), decoding case sections concurrently: the
// materializing form of StreamArchive.
func FromArchive(path string, opts OpenOptions) (*Inspector, error) {
	src, err := StreamArchive(path, opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return core.LoadStream(src, false)
}

// FromDXT ingests a Darshan DXT text dump, the alternative
// instrumentation source of the paper's Section II remark; cid names
// the resulting cases. It is the materializing form of StreamDXT.
func FromDXT(cid string, r io.Reader, opts OpenOptions) (*Inspector, error) {
	src, err := StreamDXT(cid, r, opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return core.LoadStream(src, false)
}

// FromEventLog wraps an event-log with the default mapping f̂.
func FromEventLog(el *EventLog) *Inspector { return core.FromEventLog(el) }

// WriteArchive consolidates an event-log into a single STA file, the
// counterpart of the paper's HDF5 consolidation step: a columnar,
// indexed layout with a file-level symbol dictionary that readers mmap
// and decode without re-parsing strings.
func WriteArchive(path string, el *EventLog) error { return archive.WriteFileV2(path, el) }

// BuildDFG synthesizes the DFG of an event-log under a mapping, with the
// virtual start/end activities appended.
func BuildDFG(el *EventLog, m Mapping) *DFG {
	return dfg.Build(pm.Build(el, m, pm.BuildOptions{Endpoints: true}))
}

// ComputeStats computes the Section IV-B statistics.
func ComputeStats(el *EventLog, m Mapping) *Stats { return stats.Compute(el, m) }

// Classify performs the partition-based classification of Section IV-C.
func Classify(full, green, red *DFG) *Partition { return dfg.Classify(full, green, red) }

// MaxConcurrency computes mc over a set of intervals (Equation 16).
func MaxConcurrency(intervals []Interval) int { return stats.MaxConcurrency(intervals) }

// Timeline extracts t_f(a, C), the Figure 5 interval data.
func Timeline(el *EventLog, m Mapping, a Activity) []Interval {
	return stats.Timeline(el, m, a)
}

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
	records, err := dxt.ParseSyms(r, opts.Syms)
	if err != nil {
		return nil, err
	}
	return dxt.Stream(cid, records, opts.Parallelism, opts.Window), nil
}

// StreamEventLog adapts an in-memory event-log to the streaming API.
func StreamEventLog(el *EventLog) Source { return source.FromLog(el) }

// FilterStream derives a source keeping only events for which keep
// returns true; cases left empty are dropped, matching EventLog.Filter.
func FilterStream(s Source, keep func(Event) bool) Source {
	return source.Filter(s, keep)
}

// FilterStreamCases derives a source keeping only the cases for which
// keep returns true — the streaming form of EventLog.FilterCases, and
// the case-split primitive behind partition analyses over streams.
func FilterStreamCases(s Source, keep func(*Case) bool) Source {
	return source.FilterCases(s, keep)
}

// AnalyzeStream consumes a source in one bounded-memory pass and
// returns the activity-log, DFG and statistics — identical to the
// in-memory pipeline's artifacts. joinErrors selects collect-all
// (Strict) versus fail-fast error semantics. The source is not closed.
// It is the one-shard case of AnalyzeStreamParallel.
func AnalyzeStream(src Source, m Mapping, joinErrors bool) (*StreamResult, error) {
	return core.AnalyzeStream(src, m, joinErrors)
}

// AnalyzeStreamParallel is AnalyzeStream with the analysis fold itself
// sharded over concurrent workers (round-robin case blocks, one builder
// set per shard, shard partials merged exactly afterwards): the
// artifacts are byte-identical to the sequential pass at every shard
// count, so shards is purely a throughput knob. 0 means GOMAXPROCS, 1
// is the sequential fold. Combine with the Stream* constructors'
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
// uninterrupted run (stinspect exposes this as the snapshot subcommand;
// stbench as -checkpoint/-resume).
func AnalyzeStreamCheckpointed(src Source, m Mapping, shards int, joinErrors bool, opts CheckpointOptions) (*StreamResult, error) {
	return core.AnalyzeStreamCheckpointed(src, m, shards, joinErrors, opts)
}

// WriteSnapshot folds a source and writes the pre-Finalize aggregate
// state to an STS snapshot file — the per-process half of a
// multi-process fold. Snapshots of a disjoint corpus partition merge
// (MergeSnapshots, `stinspect -merge-snapshots`) into exactly the
// single-process result.
func WriteSnapshot(path string, src Source, m Mapping, shards int, joinErrors bool) error {
	s, err := core.AnalyzeStreamSnapshot(src, m, shards, joinErrors)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, s)
}

// MergeSnapshots loads STS snapshot files written by separate fold
// processes (WriteSnapshot or the checkpoint engine), merges them
// exactly, and finalizes the combined artifacts — byte-identical to a
// single run over the union of the inputs' cases.
func MergeSnapshots(m Mapping, paths ...string) (*StreamResult, error) {
	return core.MergeSnapshotFiles(m, paths...)
}

// LoadStream materializes a source into an Inspector — the in-memory
// API on top of the streaming one.
func LoadStream(src Source, joinErrors bool) (*Inspector, error) {
	return core.LoadStream(src, joinErrors)
}

// PeakResident reports how many cases a source held resident at its
// peak (0 if untracked) — the observable behind the O(batch) claim.
func PeakResident(s Source) int { return source.PeakResident(s) }

// Live ingestion layer: tail growing trace files fault-tolerantly into
// a bounded-backpressure source and fold them durably as they complete
// (see internal/strace, internal/source and internal/serve; cmd/stserve
// is the daemon over this API).
type (
	// LiveSource is a push-based Source with a hard in-flight case
	// budget. Producers Push completed cases (and Fail recoverable
	// errors); an analysis fold consumes through the Source contract.
	// Unlike file-backed sources, delivery follows completion order —
	// final artifacts are order-canonical regardless.
	LiveSource = source.Live
	// BackpressurePolicy decides what Push does at a full budget:
	// BlockProducer stalls the producer, ShedOldest drops the oldest
	// queued case and counts it.
	BackpressurePolicy = source.Policy
	// FollowOptions configures follow-mode tailing: parse options plus
	// poll cadence, completion grace, per-file stall timeout, reopen
	// backoff cap, and the jitter seed.
	FollowOptions = strace.FollowOptions
	// Tailer follows every *.st file in a directory as it grows,
	// surviving truncation, rotation and transient I/O faults, and
	// pushes each case into a CaseSink exactly once, when complete.
	Tailer = strace.Tailer
	// TailStats are a tailer's lifetime counters (cases, rotations,
	// truncations, reopens, stalls, partial drops, parse skips).
	TailStats = strace.TailStats
	// CaseSink receives completed cases and recoverable errors from a
	// Tailer; *LiveSource implements it.
	CaseSink = strace.Sink
	// StallError reports a file that stopped growing before its exit
	// record for longer than the stall timeout; it is recoverable
	// (Temporary) and the tailer keeps following the file.
	StallError = strace.StallError
)

// Backpressure policies for NewLiveSource.
const (
	BlockProducer = source.Block
	ShedOldest    = source.ShedOldest
)

// DefaultLiveBudget is the in-flight case budget NewLiveSource uses
// when given a non-positive budget.
const DefaultLiveBudget = source.DefaultLiveBudget

// NewLiveSource returns an empty live source with the given in-flight
// budget (≤0 means DefaultLiveBudget) and overflow policy.
func NewLiveSource(budget int, policy BackpressurePolicy) *LiveSource {
	return source.NewLive(budget, policy)
}

// ParseBackpressurePolicy parses "block" or "shed-oldest" ("" means
// block), the spelling the commands accept.
func ParseBackpressurePolicy(s string) (BackpressurePolicy, error) {
	return source.ParsePolicy(s)
}

// TailDir returns a tailer following every *.st file under dir into
// sink. Start begins polling; Drain stops at end-of-input and flushes
// what parsed; Stop abandons in-flight work.
func TailDir(dir string, sink CaseSink, opts FollowOptions) *Tailer {
	return strace.TailDir(dir, sink, opts)
}

// FollowReader parses one case from a possibly-truncated stream with
// the tailer's resume semantics: complete records parse, an
// unterminated final line is dropped and counted, never misparsed.
// It returns the case, the number of dropped trailing lines, and the
// first parse error when opts.Strict.
func FollowReader(id CaseID, r io.Reader, opts ParseOptions) (*Case, int, error) {
	return strace.FollowReader(id, r, opts)
}

// MergeArchives consolidates several STA files into one; case identities
// must be disjoint.
func MergeArchives(dst string, srcs ...string) error { return archive.Merge(dst, srcs...) }

// NewEnvMapping builds a site-variable path abstraction (the paper's f̄).
func NewEnvMapping(depth int, vars ...PrefixVar) *EnvMapping {
	return pm.NewEnvMapping(depth, vars...)
}

// RestrictPath narrows a mapping's domain to paths containing substr.
func RestrictPath(m Mapping, substr string) Mapping { return pm.RestrictPath(m, substr) }

// RestrictCalls narrows a mapping's domain to the given system calls.
func RestrictCalls(m Mapping, calls ...string) Mapping { return pm.RestrictCalls(m, calls...) }
