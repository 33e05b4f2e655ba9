// Command stbench regenerates the paper's evaluation artifacts: every
// figure of the methodology section (Figures 2-5) and the IOR
// experiments (Figures 8 and 9), plus the ablations of the contention
// mechanisms. For each experiment it prints the regenerated artifact
// (DFG listings, DOT documents, timelines) and a table of
// paper-vs-measured checks; the exit status is non-zero if any check
// fails.
//
//	stbench -fig all
//	stbench -fig fig8b -ranks 96 -hosts 2
//	stbench -fig fig9 -checks-only
//
// The -ingest mode benchmarks the concurrent trace-ingestion pipeline
// instead: it synthesizes a directory of N per-rank strace files, then
// times sequential (Parallelism: 1), parallel (-j workers) ReadDir, and
// the streaming pass (-window resident cases, never materializing the
// event-log), reporting the speedup and the peak number of cases
// resident. A re-ingestion section then consolidates the same log as an
// STA archive and streams it back through the identical walk, reporting
// the archive-vs-strace throughput and allocation ratios. Finally it
// times the analysis fold
// (activity-log + DFG + statistics synthesis) separately, over the
// already-ingested log, at one shard and at -ashards shards, so
// ingest-bound and analysis-bound regressions are distinguishable:
//
//	stbench -ingest 200 -events 2000 -j 8 -window 16 -ashards 8
//
// With -json PATH the ingest mode additionally writes the measured
// table as machine-readable JSON (one object per stage: stage,
// wall_ns, mb_per_s, events_per_s, allocs_per_event), so the
// performance trajectory is trackable across commits; CI uploads the
// file as the BENCH_ingest.json artifact.
//
// -scoped-syms runs each timed ingestion pass over its own scoped
// symbol table instead of the process-wide one (the long-lived-service
// configuration); the report then includes the resident-symbol count
// per pass and confirms the process-wide table did not grow.
//
// Exit status: 0 on success (including -h), 2 for command-line (usage)
// errors, 1 for runtime failures (including failed checks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stinspector/internal/archive"
	"stinspector/internal/cliutil"
	"stinspector/internal/core"
	"stinspector/internal/experiments"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

func main() {
	os.Exit(cliutil.Report(os.Stderr, "stbench", run(os.Args[1:])))
}

// usagef builds a usage error — "you invoked me wrong" (exit 2) as
// opposed to "the benchmark or its checks failed" (exit 1), per the
// contract in internal/cliutil.
func usagef(format string, args ...any) error {
	return cliutil.Usagef(format, args...)
}

func run(args []string) error {
	fs := flag.NewFlagSet("stbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment id ("+strings.Join(experiments.IDs, ", ")+") or 'all'")
	ranks := fs.Int("ranks", 96, "IOR experiment ranks")
	hosts := fs.Int("hosts", 2, "IOR experiment hosts")
	segments := fs.Int("segments", 3, "IOR segments")
	transfers := fs.Int("transfers", 16, "transfers per block")
	seed := fs.Int64("seed", 20240924, "simulation seed")
	checksOnly := fs.Bool("checks-only", false, "print only the check tables, not the artifacts")
	ingest := fs.Int("ingest", 0, "benchmark trace ingestion over this many synthetic trace files instead of running figures")
	events := fs.Int("events", 2000, "events per synthetic trace file (-ingest mode)")
	jobs := fs.Int("j", 0, "parallel ingestion workers (-ingest mode; 0 = GOMAXPROCS)")
	window := fs.Int("window", 0, "streaming pass: max cases resident (-ingest mode; 0 = 2x workers)")
	ashards := fs.Int("ashards", 0, "analysis fold shards (-ingest mode; 0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write the -ingest throughput table or -matrix report as JSON to this path")
	scopedSyms := fs.Bool("scoped-syms", false, "-ingest mode: scope a fresh symbol table to each timed pass instead of the process-wide table, and report resident symbols")
	ckptDir := fs.String("checkpoint", "", "-ingest mode: also time the checkpointed analysis fold, writing snapshots into this directory")
	ckptEvery := fs.Int("checkpoint-every", 0, "-ingest mode: checkpoint epoch size in cases (0 = one snapshot at the end)")
	resume := fs.Bool("resume", false, "-ingest mode: resume the checkpointed fold from an existing snapshot in -checkpoint")
	liveFiles := fs.Int("live", 0, "benchmark live follow-mode ingestion over this many paced synthetic trace files (standalone or with -ingest)")
	rate := fs.Float64("rate", 50000, "-live mode: target replay event rate in events/second")
	budget := fs.Int("budget", 0, "-live mode: in-flight case budget for the bounded live source (0 = library default)")
	matrix := fs.Bool("matrix", false, "run the scenario matrix: profile × backend × shards × scoped-syms sweep")
	mcases := fs.Int("mcases", 8, "matrix mode: cases per cell")
	mevents := fs.Int("mevents", 120, "matrix mode: events per case")
	profilesCSV := fs.String("profiles", "", "matrix mode: comma-separated profile subset (default all; see tracegen -list-profiles)")
	against := fs.String("against", "", "matrix mode: diff the fresh sweep against this committed baseline JSON")
	if err := fs.Parse(args); err != nil {
		return cliutil.Usage(err)
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"j", *jobs}, {"window", *window}, {"ashards", *ashards}} {
		if f.value < 0 {
			return usagef("-%s must not be negative (got %d); 0 selects the default", f.name, f.value)
		}
	}
	if *ingest < 0 {
		return usagef("-ingest must not be negative (got %d); omit it to run figures", *ingest)
	}
	if *liveFiles < 0 {
		return usagef("-live must not be negative (got %d); omit it to skip the live stages", *liveFiles)
	}
	if *budget < 0 {
		return usagef("-budget must not be negative (got %d); 0 selects the library default", *budget)
	}
	if *rate <= 0 {
		return usagef("-rate must be positive (got %g)", *rate)
	}

	if *matrix && *ingest > 0 {
		return usagef("-matrix and -ingest are mutually exclusive")
	}
	if *matrix && *liveFiles > 0 {
		return usagef("-matrix and -live are mutually exclusive")
	}
	if *budget != 0 && *liveFiles == 0 {
		return usagef("-budget requires -live")
	}
	if *matrix {
		if *scopedSyms {
			return usagef("-scoped-syms has no effect in -matrix mode: the sweep includes a scoped axis")
		}
		// The shard axis defaults to a fixed 4 (not GOMAXPROCS) so the
		// committed baseline's cell keys match on any machine.
		shards := *ashards
		if shards <= 0 {
			shards = 4
		}
		return matrixBench(*profilesCSV, *mcases, *mevents, shards, *seed, *jsonPath, *against)
	}
	if *against != "" {
		return usagef("-against requires -matrix mode")
	}
	if *profilesCSV != "" {
		return usagef("-profiles requires -matrix mode")
	}

	if *ckptDir == "" && (*ckptEvery != 0 || *resume) {
		return usagef("-checkpoint-every and -resume require -checkpoint DIR")
	}
	if *ckptEvery < 0 {
		return usagef("-checkpoint-every must not be negative (got %d); 0 snapshots once at the end", *ckptEvery)
	}
	if *ingest > 0 || *liveFiles > 0 {
		if *events < 1 {
			return usagef("-events must be at least 1 in -ingest/-live mode (got %d)", *events)
		}
	}
	lcfg := liveConfig{files: *liveFiles, rate: *rate, budget: *budget}
	if *ingest > 0 {
		ckpt := checkpointConfig{dir: *ckptDir, every: *ckptEvery, resume: *resume}
		return ingestBench(*ingest, *events, *jobs, *window, *ashards, *seed, *jsonPath, *scopedSyms, ckpt, lcfg)
	}
	if *ckptDir != "" {
		return usagef("-checkpoint requires -ingest mode")
	}
	if *scopedSyms {
		return usagef("-scoped-syms requires -ingest mode")
	}
	if *liveFiles > 0 {
		return liveBench(lcfg, *events, *ashards, *seed, *jsonPath)
	}
	if *jsonPath != "" {
		return usagef("-json requires -ingest, -live or -matrix mode")
	}

	scale := experiments.Scale{
		Ranks:             *ranks,
		Hosts:             *hosts,
		Segments:          *segments,
		TransfersPerBlock: *transfers,
		Seed:              *seed,
	}

	var reports []*experiments.Report
	if *fig == "all" {
		all, err := experiments.RunAll(scale)
		if err != nil {
			return err
		}
		reports = all
	} else {
		r, err := experiments.Run(*fig, scale)
		if err != nil {
			return err
		}
		reports = []*experiments.Report{r}
	}

	failed := 0
	for _, r := range reports {
		if !*checksOnly {
			fmt.Printf("\n================ %s: %s ================\n", r.ID, r.Title)
			fmt.Println(r.Text)
		}
		fmt.Println(r.Summary())
		failed += len(r.Failed())
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	fmt.Println("all checks passed")
	return nil
}

// benchStage is one row of the machine-readable throughput table
// (-json): a pipeline stage with its wall time, data and event
// throughput, and allocation cost per event.
type benchStage struct {
	Stage          string  `json:"stage"`
	WallNS         int64   `json:"wall_ns"`
	MBPerS         float64 `json:"mb_per_s"`
	EventsPerS     float64 `json:"events_per_s"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Live-follow stages only (see cmd/stbench/live.go): steady-state
	// follow lag, cases shed by the backpressure policy, and the peak
	// in-flight case count against the budget.
	LagMeanNS    int64  `json:"lag_mean_ns,omitempty"`
	LagMaxNS     int64  `json:"lag_max_ns,omitempty"`
	Shed         uint64 `json:"shed,omitempty"`
	PeakResident int    `json:"peak_resident,omitempty"`
}

// writeStages writes the stage table as the BENCH JSON artifact
// (no-op when path is empty).
func writeStages(jsonPath string, stages []benchStage) error {
	if jsonPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(stages, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d stages)\n", jsonPath, len(stages))
	return nil
}

// measured times f and reports the global allocation delta around it
// (runtime.MemStats.Mallocs covers all goroutines, so the parallel
// stages are accounted fully).
func measured(f func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs, err
}

// ingestBench synthesizes a trace directory of nFiles per-rank files,
// times sequential ReadDir, parallel ReadDir, and the streaming pass
// (the ingest section), then times the analysis fold over the already
// materialized log at one shard versus ashards shards (the analysis
// section) — so a regression report names the stage that slowed down.
// jsonPath, when non-empty, receives the table as JSON. With scoped
// true every timed pass owns a fresh symbol table (the
// long-lived-service configuration) and the report adds the
// resident-symbol accounting. A non-empty ckpt.dir adds a timed pass
// through the checkpointed fold, measuring the durability overhead
// against the plain sharded fold.
// checkpointConfig carries the -checkpoint/-checkpoint-every/-resume
// settings into the ingest benchmark.
type checkpointConfig struct {
	dir    string
	every  int
	resume bool
}

func ingestBench(nFiles, perFile, jobs, window, ashards int, seed int64, jsonPath string, scoped bool, ckpt checkpointConfig, live liveConfig) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if window <= 0 {
		window = 2 * jobs // the streaming default, resolved for reporting
	}
	if ashards <= 0 {
		ashards = runtime.GOMAXPROCS(0)
	}
	dir, err := os.MkdirTemp("", "stbench-ingest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	log := synth.Log("bench", nFiles, perFile, seed)
	if err := strace.WriteDir(dir, log); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var bytes int64
	for _, ent := range ents {
		fi, err := os.Stat(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	fmt.Printf("synthetic trace directory: %d files, %d events, %.1f MB\n",
		nFiles, log.NumEvents(), float64(bytes)/1e6)

	nEvents := log.NumEvents()
	// byteSize: the bytes a stage actually consumes (the trace directory
	// for the strace stages, the archive file for the re-ingestion
	// stages), so MB/s compares encodings honestly; the analysis stages
	// fold an already-materialized log and pass 0 rather than a
	// fabricated byte throughput.
	stage := func(name string, wall time.Duration, allocs uint64, byteSize int64) benchStage {
		s := benchStage{
			Stage:          name,
			WallNS:         wall.Nanoseconds(),
			EventsPerS:     float64(nEvents) / wall.Seconds(),
			AllocsPerEvent: float64(allocs) / float64(nEvents),
		}
		if byteSize > 0 {
			s.MBPerS = float64(byteSize) / 1e6 / wall.Seconds()
		}
		return s
	}
	var stages []benchStage

	// Each timed pass owns its symbol universe when scoped: a fresh
	// table per pass, dropped with the pass's result — the resident
	// count below is therefore a per-pass observable, and the
	// process-wide Default must not move.
	defaultSyms0 := intern.Default.Len()
	var passSyms int // resident symbols of the most recent scoped pass
	newTab := func() *intern.Table {
		if !scoped {
			return nil
		}
		return intern.NewTable()
	}

	run := func(parallelism int) (time.Duration, uint64, error) {
		tab := newTab()
		wall, allocs, err := measured(func() error {
			got, err := strace.ReadDir(dir, strace.Options{Strict: true, Parallelism: parallelism, Syms: tab})
			if err != nil {
				return err
			}
			if got.NumEvents() != nEvents {
				return fmt.Errorf("ingest dropped events: got %d, want %d", got.NumEvents(), nEvents)
			}
			return nil
		})
		if tab != nil {
			passSyms = tab.Len()
		}
		return wall, allocs, err
	}

	// The streaming pass consumes cases as they arrive and drops them —
	// peak memory is the resident window, not the trace set.
	runStream := func() (time.Duration, uint64, int, error) {
		peak := 0
		tab := newTab()
		wall, allocs, err := measured(func() error {
			src, err := strace.StreamDir(dir, strace.Options{Strict: true, Parallelism: jobs, Window: window, Syms: tab})
			if err != nil {
				return err
			}
			defer src.Close()
			events := 0
			err = source.Walk(src, true, func(c *trace.Case) error {
				events += c.Len()
				return nil
			})
			if err != nil {
				return err
			}
			if events != nEvents {
				return fmt.Errorf("streaming ingest dropped events: got %d, want %d", events, nEvents)
			}
			peak = source.PeakResident(src)
			return nil
		})
		if tab != nil {
			passSyms = tab.Len()
		}
		return wall, allocs, peak, err
	}

	// Warm the page cache so all timings measure parsing, not disk. In
	// Default mode this also warms the symbol table, so the timed passes
	// see no first-sight interning; in scoped mode each timed pass
	// deliberately starts with a cold table — paying the vocabulary's
	// first-sight interning per pass IS the long-lived-service
	// configuration under measurement, so its numbers are not directly
	// comparable to a Default-mode run.
	if _, _, err := run(jobs); err != nil {
		return err
	}
	seq, seqAllocs, err := run(1)
	if err != nil {
		return err
	}
	par, parAllocs, err := run(jobs)
	if err != nil {
		return err
	}
	str, strAllocs, peak, err := runStream()
	if err != nil {
		return err
	}
	stages = append(stages,
		stage("ingest_sequential", seq, seqAllocs, bytes),
		stage(fmt.Sprintf("ingest_parallel_j%d", jobs), par, parAllocs, bytes),
		stage(fmt.Sprintf("ingest_streaming_j%d_w%d", jobs, window), str, strAllocs, bytes),
	)
	aev := func(allocs uint64) float64 { return float64(allocs) / float64(nEvents) }
	fmt.Printf("%-32s %12s %14s %14s\n", "INGEST", "WALL", "THROUGHPUT", "ALLOCS/EVENT")
	fmt.Printf("%-32s %12v %11.1f MB/s %14.3f\n", "sequential (Parallelism: 1)", seq.Round(time.Millisecond), float64(bytes)/1e6/seq.Seconds(), aev(seqAllocs))
	fmt.Printf("%-32s %12v %11.1f MB/s %14.3f\n", fmt.Sprintf("parallel (Parallelism: %d)", jobs), par.Round(time.Millisecond), float64(bytes)/1e6/par.Seconds(), aev(parAllocs))
	fmt.Printf("%-32s %12v %11.1f MB/s %14.3f\n", fmt.Sprintf("streaming (j=%d, window=%d)", jobs, window), str.Round(time.Millisecond), float64(bytes)/1e6/str.Seconds(), aev(strAllocs))
	fmt.Printf("ingest speedup: %.2fx\n", seq.Seconds()/par.Seconds())
	fmt.Printf("peak cases resident (streaming): %d of %d files\n", peak, nFiles)
	if scoped {
		grew := intern.Default.Len() - defaultSyms0
		fmt.Printf("resident symbols: %d per scoped ingestion pass (process-wide Default grew by %d)\n",
			passSyms, grew)
		// Scoped passes must leave Default untouched; growth means some
		// ingestion call site fell back to the process-wide table. Fail
		// the run so the CI smoke gates the property, not just prints it.
		if grew != 0 {
			return fmt.Errorf("scoped ingestion grew intern.Default by %d symbols; the scoped-table plumbing leaks", grew)
		}
	} else {
		fmt.Printf("resident symbols: %d in process-wide Default\n", intern.Default.Len())
	}

	// Re-ingestion section: consolidate the same event-log as an STA
	// archive, then stream it back through the identical walk as the
	// strace streaming pass. This is the archive's reason to exist — pay
	// parsing once, re-read many times — so the archive/strace ratios
	// below are the numbers BENCHMARKS.md tracks.
	arcDir, err := os.MkdirTemp("", "stbench-arc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(arcDir)
	arcPath := filepath.Join(arcDir, "bench.sta")
	if err := archive.WriteFileV2(arcPath, log); err != nil {
		return err
	}
	fi, err := os.Stat(arcPath)
	if err != nil {
		return err
	}
	arcBytes := fi.Size()
	runArchive := func() (time.Duration, uint64, error) {
		tab := newTab()
		wall, allocs, err := measured(func() error {
			src, err := archive.OpenSource(arcPath, archive.Options{Parallelism: jobs, Window: window, Syms: tab})
			if err != nil {
				return err
			}
			defer src.Close()
			events := 0
			err = source.Walk(src, true, func(c *trace.Case) error {
				events += c.Len()
				return nil
			})
			if err != nil {
				return err
			}
			if events != nEvents {
				return fmt.Errorf("archive re-ingestion dropped events: got %d, want %d", events, nEvents)
			}
			return nil
		})
		if tab != nil {
			passSyms = tab.Len()
		}
		return wall, allocs, err
	}
	if _, _, err := runArchive(); err != nil { // warm (page cache, symbols)
		return err
	}
	arcWall, arcAllocs, err := runArchive()
	if err != nil {
		return err
	}
	stages = append(stages, stage(fmt.Sprintf("reingest_sta2_j%d_w%d", jobs, window), arcWall, arcAllocs, arcBytes))
	evs := func(d time.Duration) float64 { return float64(nEvents) / d.Seconds() }
	fmt.Printf("\n%-32s %12s %14s %14s\n", "RE-INGESTION", "WALL", "THROUGHPUT", "ALLOCS/EVENT")
	fmt.Printf("%-32s %12v %8.2f Mev/s %14.3f\n", fmt.Sprintf("sta (%.1f MB)", float64(arcBytes)/1e6), arcWall.Round(time.Millisecond), evs(arcWall)/1e6, aev(arcAllocs))
	fmt.Printf("re-ingestion speedup: sta %.2fx vs strace streaming (events/s)\n", str.Seconds()/arcWall.Seconds())
	fmt.Printf("allocs/event: strace %.3f, sta %.3f (strace/sta %.1fx)\n",
		aev(strAllocs), aev(arcAllocs), float64(strAllocs)/float64(arcAllocs))

	// Analysis section: fold the already-materialized log through the
	// streaming analysis so the numbers isolate synthesis (activity-log
	// + DFG + statistics) from parsing. The sharded fold must reproduce
	// the sequential artifacts byte-identically; counts are checked here
	// as a cheap smoke of that law.
	runAnalysis := func(shards int) (time.Duration, uint64, *core.StreamResult, error) {
		var res *core.StreamResult
		wall, allocs, err := measured(func() error {
			src := source.FromLog(log)
			defer src.Close()
			var err error
			res, err = core.AnalyzeStreamParallel(src, pm.CallTopDirs{Depth: 2}, shards, true)
			if err != nil {
				return err
			}
			if res.Events != nEvents {
				return fmt.Errorf("analysis dropped events at shards=%d: got %d, want %d", shards, res.Events, nEvents)
			}
			return nil
		})
		return wall, allocs, res, err
	}
	if _, _, _, err := runAnalysis(ashards); err != nil { // warm
		return err
	}
	aseq, aseqAllocs, seqRes, err := runAnalysis(1)
	if err != nil {
		return err
	}
	apar, aparAllocs, parRes, err := runAnalysis(ashards)
	if err != nil {
		return err
	}
	if seqRes.ActivityLog.NumVariants() != parRes.ActivityLog.NumVariants() ||
		seqRes.DFG.NumEdges() != parRes.DFG.NumEdges() {
		return fmt.Errorf("sharded analysis diverged: %d/%d variants, %d/%d edges",
			seqRes.ActivityLog.NumVariants(), parRes.ActivityLog.NumVariants(),
			seqRes.DFG.NumEdges(), parRes.DFG.NumEdges())
	}
	stages = append(stages,
		stage("analysis_sequential", aseq, aseqAllocs, 0),
		stage(fmt.Sprintf("analysis_sharded_s%d", ashards), apar, aparAllocs, 0),
	)
	mevs := func(d time.Duration) float64 { return float64(nEvents) / 1e6 / d.Seconds() }
	fmt.Printf("\n%-32s %12s %14s %14s\n", "ANALYSIS", "WALL", "THROUGHPUT", "ALLOCS/EVENT")
	fmt.Printf("%-32s %12v %8.2f Mevents/s %14.4f\n", "sequential fold (shards=1)", aseq.Round(time.Millisecond), mevs(aseq), aev(aseqAllocs))
	fmt.Printf("%-32s %12v %8.2f Mevents/s %14.4f\n", fmt.Sprintf("sharded fold (shards=%d)", ashards), apar.Round(time.Millisecond), mevs(apar), aev(aparAllocs))
	fmt.Printf("analysis speedup: %.2fx\n", aseq.Seconds()/apar.Seconds())
	fmt.Printf("resident symbols (analysis fold): %d per run\n", parRes.Symbols)

	// Checkpointed section: the same sharded fold with durability on —
	// an atomic snapshot write every ckpt.every cases. The artifacts
	// must match the plain fold exactly; the wall-clock delta is the
	// price of crash safety at this epoch size.
	if ckpt.dir != "" {
		var cres *core.StreamResult
		cw, cAllocs, err := measured(func() error {
			src := source.FromLog(log)
			defer src.Close()
			var err error
			cres, err = core.AnalyzeStreamCheckpointed(src, pm.CallTopDirs{Depth: 2}, ashards, true,
				core.CheckpointOptions{Dir: ckpt.dir, Every: ckpt.every, Resume: ckpt.resume})
			return err
		})
		if err != nil {
			return err
		}
		if cres.Events != nEvents ||
			cres.ActivityLog.NumVariants() != seqRes.ActivityLog.NumVariants() ||
			cres.DFG.NumEdges() != seqRes.DFG.NumEdges() {
			return fmt.Errorf("checkpointed analysis diverged: %d events (want %d), %d/%d variants, %d/%d edges",
				cres.Events, nEvents,
				cres.ActivityLog.NumVariants(), seqRes.ActivityLog.NumVariants(),
				cres.DFG.NumEdges(), seqRes.DFG.NumEdges())
		}
		stages = append(stages, stage("analysis_checkpointed", cw, cAllocs, 0))
		fmt.Printf("%-32s %12v %8.2f Mevents/s %14.4f\n",
			fmt.Sprintf("checkpointed fold (every=%d)", ckpt.every), cw.Round(time.Millisecond), mevs(cw), aev(cAllocs))
		fmt.Printf("checkpoint overhead vs sharded fold: %.2fx\n", cw.Seconds()/apar.Seconds())
	}

	if live.files > 0 {
		ls, err := liveStages(live, perFile, ashards, seed)
		if err != nil {
			return err
		}
		stages = append(stages, ls...)
	}

	return writeStages(jsonPath, stages)
}
