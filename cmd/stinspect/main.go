// Command stinspect synthesizes Directly-Follows-Graphs from system-call
// traces, following the workflow of the paper's st_inspector library
// (Figure 6).
//
// Usage (INPUT is -traces DIR, -archive FILE or -dxt FILE):
//
//	stinspect dfg       INPUT [-filter SUBSTR] [-calls CALLS] [-map MAPPING] [-format text|dot|mermaid]
//	stinspect stats     INPUT [-filter SUBSTR] [-calls CALLS] [-map MAPPING]
//	stinspect variants  INPUT [-map MAPPING]
//	stinspect behavior  INPUT
//	stinspect footprint INPUT [-green CID[,CID...]] [-map MAPPING]
//	stinspect info      INPUT
//	stinspect timeline  INPUT -activity ACT [-map MAPPING] [-format text|svg]
//	stinspect dist      INPUT -activity ACT [-map MAPPING]
//	stinspect percase   INPUT [-activity ACT] [-map MAPPING]
//	stinspect compare   INPUT -green CID[,CID...] [-map MAPPING] [-format text|dot]
//	stinspect report    INPUT [-green CID[,CID...]] [-activity ACT] [-title T] [-format text|html]
//	stinspect archive   -traces DIR -o FILE.sta
//	stinspect snapshot  INPUT -o FILE.sts [-every N] [-resume] [-map MAPPING]
//
// Mappings: "topdirs:N" (call + top N directories, the paper's f̂ with
// N=2), "file:N" (call + trailing N path components, Figure 4), or
// "env:PREFIX=VAR,...[:DEPTH]" (site-variable abstraction f̄). A -format
// value the subcommand does not render is a usage error.
//
// All subcommands accept -j N to bound ingestion parallelism (trace
// files parsed or archive cases decoded concurrently; omit for
// GOMAXPROCS) and -window N to cap how many parsed cases are resident
// at once (default 2×parallelism).
//
// Every subcommand but archive reads its input in one bounded-memory
// pass and never materializes the event-log, so trace sets larger than
// RAM stay inspectable. The fold subcommands — dfg, stats, variants,
// behavior, info, footprint and compare — stream it through the
// analysis fold; compare and footprint -green split the folded
// activity-log by the -green CIDs (Equation 18) into the G and R
// graphs. -ashards N shards that fold over N workers whose partials
// merge exactly; the output is byte-identical for every
// -j/-window/-ashards setting. The per-event views — timeline (the
// Figure 5 intervals), dist (the duration distribution) and percase
// (the straggler table) — stream it through the per-case detail fold
// instead, and report runs both folds over the same pass. -j, -window
// and -ashards require values >= 1 when given; omitting a flag selects
// its default.
//
// The snapshot subcommand folds its input in one bounded-memory pass
// and writes the pre-Finalize aggregate state — activity-log, DFG,
// statistics, folded case set — to a durable STS snapshot file,
// checkpointing every -every cases (crash loses at most one epoch) and
// resuming an interrupted fold with -resume. Snapshot files written by
// separate processes over disjoint trace subsets merge back into
// exactly the single-process artifacts:
//
//	stinspect dfg -merge-snapshots part1.sts,part2.sts,part3.sts
//
// -merge-snapshots replaces -traces/-archive/-dxt as the input of the
// fold subcommands; the output is byte-identical to a single run over
// the union of the parts' cases. Snapshots hold aggregates, no
// per-event data, so timeline, dist, percase and report reject them,
// and -filter and -calls apply when a snapshot is written, not when it
// is merged.
//
// -cases a:b restricts an -archive input to the half-open case range
// [a, b) of the archive's file order ("a:" means to the end, ":b" from
// the start). The archive index addresses every case section directly,
// without touching the skipped sections' bytes, so slicing a window out
// of a multi-GB archive costs only the cases decoded.
//
// Exit status: 0 on success (including -h), 2 for command-line (usage)
// errors, 1 for runtime failures.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"stinspector"
	"stinspector/internal/cliutil"
	"stinspector/internal/report"
	"stinspector/internal/source"
	"stinspector/internal/stats"
)

func main() {
	os.Exit(cliutil.Report(os.Stderr, "stinspect", run(os.Args[1:])))
}

// usagef builds a usage error: exit 2 instead of 1, per the contract
// in internal/cliutil.
func usagef(format string, args ...any) error {
	return cliutil.Usagef(format, args...)
}

// subcommands is the one inventory the top-level help and the
// missing/unknown-subcommand errors all print, so the lists cannot
// drift from each other.
const subcommands = "dfg, stats, variants, behavior, timeline, dist, percase, compare, report, footprint, archive, snapshot, info"

// mergeable lists the subcommands that run from merged snapshots: the
// fold subcommands, whose artifacts the snapshots' aggregates hold.
const mergeable = "dfg, stats, variants, behavior, info, footprint, compare"

// formats lists the -format values each subcommand renders, text
// first; a subcommand not listed renders text only.
var formats = map[string][]string{
	"dfg":      {"text", "dot", "mermaid"},
	"compare":  {"text", "dot"},
	"timeline": {"text", "svg"},
	"report":   {"text", "html"},
}

func run(args []string) error {
	if len(args) < 1 {
		return usagef("missing subcommand (%s)", subcommands)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "-h", "-help", "--help", "help":
		// Top-level help is a success, like <subcommand> -h.
		fmt.Println("usage: stinspect <subcommand> [flags]")
		fmt.Println("subcommands: " + subcommands)
		fmt.Println("run 'stinspect <subcommand> -h' for that subcommand's flags")
		return flag.ErrHelp
	}
	if !slices.Contains(strings.Split(subcommands, ", "), cmd) {
		return usagef("unknown subcommand %q (want one of: %s)", cmd, subcommands)
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	traces := fs.String("traces", "", "directory of <cid>_<host>_<rid>.st strace files")
	archivePath := fs.String("archive", "", "consolidated .sta event-log file")
	dxtPath := fs.String("dxt", "", "Darshan DXT text dump (darshan-dxt-parser output)")
	cid := fs.String("cid", "dxt", "command identifier for DXT-derived cases")
	filter := fs.String("filter", "", "keep only events whose file path contains this substring")
	mapping := fs.String("map", "topdirs:2", "event-to-activity mapping (topdirs:N | file:N | env:P=V,...[:D])")
	calls := fs.String("calls", "", "comma-separated call filter (e.g. read,write,openat)")
	format := fs.String("format", "text", "output format: text; dfg also dot or mermaid, compare dot, timeline svg, report html")
	activity := fs.String("activity", "", "activity for the timeline, dist, percase and report subcommands")
	green := fs.String("green", "", "comma-separated CIDs forming the green partition (compare, report, footprint)")
	out := fs.String("o", "", "output file (archive and snapshot subcommands)")
	title := fs.String("title", "", "report title (report subcommand)")
	lenient := fs.Bool("lenient", false, "skip unparseable trace lines instead of failing")
	jobs := fs.Int("j", 0, "ingestion parallelism: trace files parsed / archive cases decoded concurrently (>= 1; omit for GOMAXPROCS)")
	window := fs.Int("window", 0, "max parsed cases resident at once (>= 1; omit for 2x parallelism)")
	ashards := fs.Int("ashards", 0, "analysis shards of the fold subcommands, report and snapshot: concurrent fold workers whose partials merge exactly (>= 1; omit for GOMAXPROCS)")
	casesRange := fs.String("cases", "", "archive input: restrict to the half-open case range a:b of the archive's file order (a:, :b, a:b)")
	mergeSnaps := fs.String("merge-snapshots", "", "comma-separated STS snapshot files to merge as the input, replacing -traces/-archive/-dxt ("+mergeable+"; snapshots hold no per-event data)")
	every := fs.Int("every", 0, "snapshot subcommand: checkpoint every N folded cases (omit or <= 0: one snapshot at the end)")
	resume := fs.Bool("resume", false, "snapshot subcommand: resume from an existing -o snapshot, folding only unseen cases")
	if err := fs.Parse(rest); err != nil {
		return cliutil.Usage(err)
	}
	if err := validateCountFlags(fs, "j", "window", "ashards"); err != nil {
		return err
	}
	want, ok := formats[cmd]
	if !ok {
		want = []string{"text"}
	}
	if !slices.Contains(want, *format) {
		return usagef("%s: unknown -format %q (want %s)", cmd, *format, strings.Join(want, ", "))
	}
	// A DXT input carries -cases to the library, which rejects it.
	var caseRange *stinspector.CaseRange
	if *casesRange != "" {
		if *archivePath == "" && *dxtPath == "" {
			return usagef("-cases requires -archive (the other backends have no case index to slice)")
		}
		rg, err := parseCaseRange(*casesRange)
		if err != nil {
			return err
		}
		caseRange = &rg
	}
	switch {
	case (cmd == "timeline" || cmd == "dist") && *activity == "":
		return usagef("%s needs -activity", cmd)
	case cmd == "compare" && *green == "":
		return usagef("compare needs -green CID[,CID...]")
	case cmd == "archive" && (*traces == "" || *out == ""):
		return usagef("archive needs -traces DIR and -o FILE")
	case cmd == "snapshot" && *out == "":
		return usagef("snapshot needs -o FILE.sts")
	}
	if *mergeSnaps != "" {
		switch {
		case !slices.Contains(strings.Split(mergeable, ", "), cmd):
			return usagef("subcommand %q needs per-event data, which snapshots do not hold (-merge-snapshots serves %s)", cmd, mergeable)
		case *traces != "" || *archivePath != "" || *dxtPath != "":
			return usagef("-merge-snapshots replaces -traces/-archive/-dxt; drop the other input flags")
		case *filter != "" || *calls != "":
			return usagef("-filter and -calls apply when a snapshot is written (stinspect snapshot ... -filter/-calls), not to -merge-snapshots")
		}
	}

	if cmd == "archive" {
		in, err := stinspector.FromStraceDir(*traces, stinspector.ParseOptions{Strict: !*lenient, Parallelism: *jobs})
		if err != nil {
			return err
		}
		if err := stinspector.WriteArchive(*out, in.EventLog()); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %s\n", *out, in.Summary())
		return nil
	}

	m, err := parseMapping(*mapping)
	if err != nil {
		return err
	}
	if *mergeSnaps != "" {
		res, err := stinspector.MergeSnapshots(m, strings.Split(*mergeSnaps, ",")...)
		if err != nil {
			return err
		}
		printFold(cmd, res, *format, *green)
		return nil
	}

	// The one switch over the input backends: every subcommand but
	// archive reads its cases from this stream.
	nsrc := 0
	for _, s := range []string{*traces, *archivePath, *dxtPath} {
		if s != "" {
			nsrc++
		}
	}
	openOpts := stinspector.OpenOptions{Parallelism: *jobs, Window: *window, Cases: caseRange}
	var src stinspector.Source
	switch {
	case nsrc > 1:
		return usagef("-traces, -archive and -dxt are mutually exclusive")
	case *traces != "":
		src, err = stinspector.StreamStraceDir(*traces, stinspector.ParseOptions{Strict: !*lenient, Parallelism: *jobs, Window: *window})
	case *archivePath != "":
		src, err = stinspector.StreamArchive(*archivePath, openOpts)
	case *dxtPath != "":
		var f *os.File
		if f, err = os.Open(*dxtPath); err != nil {
			return err
		}
		src, err = stinspector.StreamDXT(*cid, f, openOpts)
		f.Close()
	default:
		return usagef("need -traces DIR, -archive FILE or -dxt FILE")
	}
	if err != nil {
		return err
	}
	defer src.Close()
	if *filter != "" {
		substr := *filter
		src = stinspector.FilterStream(src, func(e stinspector.Event) bool {
			return strings.Contains(e.FP, substr)
		})
	}
	if *calls != "" {
		set := make(map[string]bool)
		for _, c := range strings.Split(*calls, ",") {
			set[c] = true
		}
		src = stinspector.FilterStream(src, func(e stinspector.Event) bool { return set[e.Call] })
	}

	switch cmd {
	case "snapshot":
		opts := stinspector.CheckpointOptions{
			Dir:    filepath.Dir(*out),
			Name:   filepath.Base(*out),
			Every:  *every,
			Resume: *resume,
		}
		res, err := stinspector.AnalyzeStreamCheckpointed(src, m, *ashards, !*lenient, opts)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d cases, %d events, %d activities\n",
			*out, res.Cases, res.Events, len(res.Stats.Activities()))
		return nil
	case "dist", "percase", "timeline":
		d := stats.NewDetail(m)
		if err := source.Walk(src, !*lenient, func(c *stinspector.Case) error {
			d.Add(c)
			return nil
		}); err != nil {
			return err
		}
		a := stinspector.Activity(*activity)
		switch cmd {
		case "dist":
			dist, ok := d.Distribution(a)
			if !ok {
				return fmt.Errorf("no events map to activity %q", a)
			}
			fmt.Printf("activity:   %s\n", dist.Activity)
			fmt.Printf("events:     %d\n", dist.Events)
			fmt.Printf("min/p50:    %v / %v\n", dist.Min, dist.P50)
			fmt.Printf("p95/p99:    %v / %v\n", dist.P95, dist.P99)
			fmt.Printf("max/total:  %v / %v\n", dist.Max, dist.Total)
			fmt.Printf("tail share: %.2f (fraction of time in the slowest 5%% of calls)\n", dist.TailShare)
		case "percase":
			fmt.Printf("%-28s %8s %14s %14s\n", "CASE", "EVENTS", "TOTALDUR", "BYTES")
			for _, r := range d.PerCase(a) {
				fmt.Printf("%-28s %8d %14v %14d\n", r.Case, r.Events, r.TotalDur, r.Bytes)
			}
		case "timeline":
			tl := d.Timeline(a)
			if *format == "svg" {
				fmt.Print(stinspector.RenderTimelineSVG(tl, *activity))
				return nil
			}
			fmt.Print(stinspector.RenderTimeline(tl))
			fmt.Printf("max-concurrency: %d\n", stinspector.MaxConcurrency(tl))
		}
		return nil
	}

	// report fills its detail fold from the cases the sharded fold's
	// reader takes, so the input is read once.
	var d *stats.Detail
	if cmd == "report" {
		d = stats.NewDetail(m)
		src = source.FilterCases(src, func(c *stinspector.Case) bool {
			d.Add(c)
			return true
		})
	}
	res, err := stinspector.AnalyzeStreamParallel(src, m, *ashards, !*lenient)
	if err != nil {
		return err
	}
	if cmd != "report" {
		printFold(cmd, res, *format, *green)
		return nil
	}
	opts := report.Options{Title: *title, Timeline: stinspector.Activity(*activity)}
	if *green != "" {
		opts.GreenCIDs = strings.Split(*green, ",")
	}
	if *format == "html" {
		return report.GenerateHTML(os.Stdout, res, d, opts)
	}
	return report.Generate(os.Stdout, res, d, opts)
}

// printFold renders a fold subcommand's artifacts, the same whether
// they came from a streamed pass or from merged snapshots.
func printFold(cmd string, res *stinspector.StreamResult, format, green string) {
	switch cmd {
	case "dfg":
		switch format {
		case "dot":
			fmt.Print(stinspector.RenderDOT(res.DFG, res.Stats, stinspector.StatisticsColoring{Stats: res.Stats}))
		case "mermaid":
			fmt.Print(stinspector.RenderMermaid(res.DFG, res.Stats, stinspector.StatisticsColoring{Stats: res.Stats}))
		default:
			fmt.Print(stinspector.RenderText(res.DFG, res.Stats, nil))
		}
	case "stats":
		fmt.Print(statsTable(res.Stats))
	case "variants":
		for _, v := range res.ActivityLog.Variants() {
			fmt.Printf("%4d× %s\n", v.Mult, v.Seq)
		}
	case "behavior":
		fmt.Print(res.Behavior.RenderText())
	case "footprint":
		if green == "" {
			fmt.Print(stinspector.NewFootprint(res.DFG).String())
			return
		}
		// Structural comparison of the -green partition with the rest.
		g, r := splitByCID(res.ActivityLog, green)
		gf, rf := stinspector.NewFootprint(g), stinspector.NewFootprint(r)
		fmt.Printf("structural similarity: %.3f\n", gf.Similarity(rf))
		for _, d := range gf.Diff(rf) {
			fmt.Printf("  %s vs %s:  green %s, red %s\n", d.A, d.B, d.Left, d.Rite)
		}
	case "compare":
		g, r := splitByCID(res.ActivityLog, green)
		part := stinspector.Classify(res.DFG, g, r)
		if format == "dot" {
			fmt.Print(stinspector.RenderDOT(res.DFG, res.Stats, stinspector.PartitionColoring{Partition: part}))
		} else {
			fmt.Print(stinspector.RenderText(res.DFG, res.Stats, part))
		}
		gn, rn, sn := part.CountNodes()
		fmt.Fprintf(os.Stderr, "nodes: %d green, %d red, %d shared\n", gn, rn, sn)
	case "info":
		fmt.Printf("%d cases, %d events, calls: %s; %d activities, peak %d cases resident, %d run symbols\n",
			res.Cases, res.Events, strings.Join(res.Stats.Calls(), ","),
			len(res.Stats.Activities()), res.PeakResident, res.Symbols)
	}
}

// splitByCID splits the folded activity-log into the DFGs of the cases
// whose CID is in the comma-separated -green list and of the rest
// (Equation 18).
func splitByCID(al *stinspector.ActivityLog, green string) (g, r *stinspector.DFG) {
	set := make(map[string]bool)
	for _, c := range strings.Split(green, ",") {
		set[c] = true
	}
	return stinspector.SplitDFG(al, func(id stinspector.CaseID) bool { return set[id.CID] })
}

// validateCountFlags rejects worker/window counts below 1 on any of the
// named flags the user explicitly set, with a usage error naming the
// flag — instead of letting a nonsense value select an engine default
// (or worse) deep in the pipeline. Omitted flags keep their documented
// automatic defaults.
func validateCountFlags(fs *flag.FlagSet, names ...string) error {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil || !set[f.Name] {
			return
		}
		v, convErr := strconv.Atoi(f.Value.String())
		if convErr != nil || v < 1 {
			err = usagef("-%s must be at least 1 (got %s); omit the flag for the default", f.Name, f.Value)
		}
	})
	return err
}

// parseCaseRange parses the -cases half-open range syntax: "a:b",
// "a:" (to the archive's end), ":b" (from the start). The open end is
// returned as End -1, which the archive resolves against its length.
func parseCaseRange(s string) (stinspector.CaseRange, error) {
	as, bs, ok := strings.Cut(s, ":")
	if !ok {
		return stinspector.CaseRange{}, usagef("bad -cases %q (want a:b, a:, or :b)", s)
	}
	rg := stinspector.CaseRange{End: -1}
	var err error
	if as != "" {
		if rg.Start, err = strconv.Atoi(as); err != nil || rg.Start < 0 {
			return stinspector.CaseRange{}, usagef("bad -cases start %q (want an index >= 0)", as)
		}
	}
	if bs != "" {
		if rg.End, err = strconv.Atoi(bs); err != nil || rg.End < 0 {
			return stinspector.CaseRange{}, usagef("bad -cases end %q (want an index >= 0)", bs)
		}
		if rg.Start > rg.End {
			return stinspector.CaseRange{}, usagef("-cases %q: start beyond end", s)
		}
	}
	return rg, nil
}

// parseMapping parses the -map syntax.
func parseMapping(s string) (stinspector.Mapping, error) {
	switch {
	case strings.HasPrefix(s, "topdirs:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "topdirs:"))
		if err != nil || n < 1 {
			return nil, usagef("bad mapping %q", s)
		}
		return stinspector.CallTopDirs{Depth: n}, nil
	case strings.HasPrefix(s, "file:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "file:"))
		if err != nil || n < 1 {
			return nil, usagef("bad mapping %q", s)
		}
		return stinspector.CallFileName{Keep: n}, nil
	case strings.HasPrefix(s, "env:"):
		spec := strings.TrimPrefix(s, "env:")
		depth := 0
		if i := strings.LastIndexByte(spec, ':'); i >= 0 {
			d, err := strconv.Atoi(spec[i+1:])
			if err == nil {
				depth = d
				spec = spec[:i]
			}
		}
		var vars []stinspector.PrefixVar
		for _, rule := range strings.Split(spec, ",") {
			prefix, v, ok := strings.Cut(rule, "=")
			if !ok || prefix == "" || v == "" {
				return nil, usagef("bad env rule %q (want PREFIX=VAR)", rule)
			}
			vars = append(vars, stinspector.PrefixVar{Prefix: prefix, Var: v})
		}
		if len(vars) == 0 {
			return nil, usagef("env mapping needs at least one rule")
		}
		return stinspector.NewEnvMapping(depth, vars...), nil
	default:
		return nil, usagef("unknown mapping %q (want topdirs:N, file:N or env:...)", s)
	}
}

func statsTable(st *stinspector.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %8s %8s %12s %6s\n", "ACTIVITY", "EVENTS", "RELDUR", "BYTES", "MAXC")
	for _, a := range st.Activities() {
		s := st.Get(a)
		bytes := "-"
		if s.HasBytes {
			bytes = strconv.FormatInt(s.Bytes, 10)
		}
		fmt.Fprintf(&b, "%-44s %8d %8.3f %12s %6d\n", a, s.Events, s.RelDur, bytes, s.MaxConc)
	}
	return b.String()
}
