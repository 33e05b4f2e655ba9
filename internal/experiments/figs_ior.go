package experiments

import (
	"bytes"
	"fmt"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/iorsim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/simfs"
	"stinspector/internal/trace"
)

// runSSFandFPP executes the two IOR runs of Section V-A and returns the
// combined event-log C_X (96 + 96 cases at full scale) restricted to the
// calls the paper records for experiment A (variants of read, write and
// openat).
func runSSFandFPP(scale Scale, params *simfs.Params) (*trace.EventLog, *iorsim.Result, *iorsim.Result, error) {
	scale = scale.withDefaults()
	cfgSSF := scale.iorConfig("ssf", false, iorsim.POSIX, 40000)
	cfgFPP := scale.iorConfig("fpp", true, iorsim.POSIX, 50000)
	cfgSSF.FSParams = params
	cfgFPP.FSParams = params
	ssf, err := iorsim.Run(cfgSSF)
	if err != nil {
		return nil, nil, nil, err
	}
	fpp, err := iorsim.Run(cfgFPP)
	if err != nil {
		return nil, nil, nil, err
	}
	cx, err := trace.Union(ssf.Log, fpp.Log)
	if err != nil {
		return nil, nil, nil, err
	}
	cx = cx.FilterCalls("read", "write", "openat", "pread64", "pwrite64")
	return cx, ssf, fpp, nil
}

// fig8a regenerates the DFG of all events of the SSF+FPP runs under the
// depth-0 site abstraction ($SCRATCH, $SOFTWARE, $HOME, Node Local).
func fig8a(scale Scale) (*Report, error) {
	r := &Report{ID: "fig8a", Title: "IOR SSF+FPP, all events, site abstraction (Figure 8a)"}
	cx, ssf, _, err := runSSFandFPP(scale, nil)
	if err != nil {
		return nil, err
	}
	site := ssf.Cfg.Site
	in := core.FromEventLog(cx).WithMapping(envMapping(site, 0))
	g := in.DFG()
	st := in.Stats()
	r.Text = render.RenderText(g, st, nil) + "\n" + render.RenderDOT(g, st, render.StatisticsColoring{Stats: st})

	// The figure's node set: scratch open/write/read plus the startup
	// activities.
	for _, a := range []pm.Activity{
		"openat:$SCRATCH", "write:$SCRATCH", "read:$SCRATCH",
		"openat:$SOFTWARE", "read:$SOFTWARE", "openat:$HOME",
		"openat:Node Local", "write:Node Local",
	} {
		r.check(fmt.Sprintf("node %s present", a), g.HasNode(a), fmt.Sprintf("%v", g.HasNode(a)), "true")
	}

	sc := scale.withDefaults()
	ranks := sc.Ranks
	transfers := sc.Segments * sc.TransfersPerBlock
	r.checkInt("write:$SCRATCH events", st.Get("write:$SCRATCH").Events, 2*ranks*transfers)
	r.checkInt("read:$SCRATCH events", st.Get("read:$SCRATCH").Events, 2*ranks*transfers)
	// openat $SCRATCH: one per SSF rank, two per FPP rank (create +
	// neighbour open under -C).
	r.checkInt("openat:$SCRATCH events", st.Get("openat:$SCRATCH").Events, 3*ranks)

	// The figure's headline: openat and write under $SCRATCH carry a
	// relatively high load (0.55 and 0.43 in the paper).
	rdOpen := st.Get("openat:$SCRATCH").RelDur
	rdWrite := st.Get("write:$SCRATCH").RelDur
	rdRead := st.Get("read:$SCRATCH").RelDur
	r.checkRange("rd(openat:$SCRATCH) ~ paper 0.55", rdOpen, 0.35, 0.70)
	r.checkRange("rd(write:$SCRATCH) ~ paper 0.43", rdWrite, 0.25, 0.55)
	r.check("rd(openat) > rd(write) > rd(read)",
		rdOpen > rdWrite && rdWrite > rdRead,
		fmt.Sprintf("%.3f > %.3f > %.3f", rdOpen, rdWrite, rdRead), "monotone")
	for _, a := range []pm.Activity{"openat:$SOFTWARE", "read:$SOFTWARE", "openat:$HOME", "write:Node Local"} {
		r.check(fmt.Sprintf("rd(%s) ≈ 0.00", a), st.Get(a).RelDur < 0.01,
			fmt.Sprintf("%.4f", st.Get(a).RelDur), "< 0.01")
	}
	// DR concurrency: the scratch write/read activities reach full
	// rank concurrency (96× in the paper).
	r.checkInt("mc(write:$SCRATCH)", st.Get("write:$SCRATCH").MaxConc, ranks)
	return r, nil
}

// fig8b regenerates the DFG restricted to the $SCRATCH directory at
// depth 1, which separates the ssf/ and fpp/ run directories.
func fig8b(scale Scale) (*Report, error) {
	r := &Report{ID: "fig8b", Title: "IOR SSF vs FPP under $SCRATCH (Figure 8b)"}
	cx, ssf, fpp, err := runSSFandFPP(scale, nil)
	if err != nil {
		return nil, err
	}
	site := ssf.Cfg.Site
	in := core.FromEventLog(cx).FilterPath(site.Scratch).WithMapping(envMapping(site, 1))
	g := in.DFG()
	st := in.Stats()
	r.Text = render.RenderText(g, st, nil) + "\n" + render.RenderDOT(g, st, render.StatisticsColoring{Stats: st})

	sc := scale.withDefaults()
	ranks := sc.Ranks
	transfers := sc.Segments * sc.TransfersPerBlock

	// Structure: the ssf chain openat → write…write → read…read → ■
	// with the counts of the figure (96 / 4512 / 96 at full scale).
	r.checkInt("edge ●→openat:$SCRATCH/ssf",
		g.EdgeCount(dfg.Edge{From: pm.Start, To: "openat:$SCRATCH/ssf"}), ranks)
	r.checkInt("edge openat→write (ssf)",
		g.EdgeCount(dfg.Edge{From: "openat:$SCRATCH/ssf", To: "write:$SCRATCH/ssf"}), ranks)
	r.checkInt("self edge write:$SCRATCH/ssf",
		g.EdgeCount(dfg.Edge{From: "write:$SCRATCH/ssf", To: "write:$SCRATCH/ssf"}), ranks*(transfers-1))
	r.checkInt("edge write→read (ssf)",
		g.EdgeCount(dfg.Edge{From: "write:$SCRATCH/ssf", To: "read:$SCRATCH/ssf"}), ranks)
	r.checkInt("self edge read:$SCRATCH/ssf",
		g.EdgeCount(dfg.Edge{From: "read:$SCRATCH/ssf", To: "read:$SCRATCH/ssf"}), ranks*(transfers-1))
	r.checkInt("edge read→■ (ssf)",
		g.EdgeCount(dfg.Edge{From: "read:$SCRATCH/ssf", To: pm.End}), ranks)

	// Byte totals: each mode moves ranks × segments × blocksize
	// (4.83 GB at full scale) in each direction.
	totalBytes := int64(ranks*transfers) << 20
	r.checkInt("bytes write:$SCRATCH/ssf", int(st.Get("write:$SCRATCH/ssf").Bytes), int(totalBytes))
	r.checkInt("bytes read:$SCRATCH/fpp", int(st.Get("read:$SCRATCH/fpp").Bytes), int(totalBytes))

	// The headline comparison: openat and write loads of the SSF run
	// dominate; their FPP counterparts are negligible (paper: 0.54 and
	// 0.43 vs 0.01 and 0.00).
	rdOpenSSF := st.Get("openat:$SCRATCH/ssf").RelDur
	rdOpenFPP := st.Get("openat:$SCRATCH/fpp").RelDur
	rdWriteSSF := st.Get("write:$SCRATCH/ssf").RelDur
	rdWriteFPP := st.Get("write:$SCRATCH/fpp").RelDur
	rdReadSSF := st.Get("read:$SCRATCH/ssf").RelDur
	rdReadFPP := st.Get("read:$SCRATCH/fpp").RelDur
	r.checkRange("rd(openat ssf) ~ paper 0.54", rdOpenSSF, 0.35, 0.70)
	r.checkRange("rd(write ssf) ~ paper 0.43", rdWriteSSF, 0.25, 0.55)
	r.check("rd(openat ssf) ≫ rd(openat fpp)", rdOpenSSF > 10*rdOpenFPP,
		fmt.Sprintf("%.3f vs %.3f", rdOpenSSF, rdOpenFPP), "> 10×")
	r.check("rd(write ssf) ≫ rd(write fpp)", rdWriteSSF > 10*rdWriteFPP,
		fmt.Sprintf("%.3f vs %.3f", rdWriteSSF, rdWriteFPP), "> 10×")
	r.check("reads cheap in both modes", rdReadSSF < 0.05 && rdReadFPP < 0.05,
		fmt.Sprintf("%.3f / %.3f", rdReadSSF, rdReadFPP), "< 0.05")

	// Concurrency: the contended SSF write reaches all ranks.
	r.checkInt("mc(write ssf)", st.Get("write:$SCRATCH/ssf").MaxConc, ranks)

	// Mechanism evidence from the filesystem model.
	r.checkInt("fpp revocations", fpp.FS.Revocations, 0)
	r.check("ssf revocations ≈ ranks×segments", ssf.FS.Revocations >= ranks*(sc.Segments-1),
		fmt.Sprintf("%d", ssf.FS.Revocations), fmt.Sprintf("≥ %d", ranks*(sc.Segments-1)))
	r.checkInt("ssf shared opens", ssf.FS.SharedOpens, ranks-1)
	return r, nil
}

// fig9 regenerates the partition-colored DFG of the POSIX vs MPI-IO
// comparison of Section V-B.
func fig9(scale Scale) (*Report, error) {
	r := &Report{ID: "fig9", Title: "IOR with vs without MPI-IO, partition coloring (Figure 9)"}
	scale = scale.withDefaults()
	cfgP := scale.iorConfig("posix", false, iorsim.POSIX, 60000)
	cfgM := scale.iorConfig("mpiio", false, iorsim.MPIIO, 70000)
	posix, err := iorsim.Run(cfgP)
	if err != nil {
		return nil, err
	}
	mpiio, err := iorsim.Run(cfgM)
	if err != nil {
		return nil, err
	}
	cy, err := trace.Union(posix.Log, mpiio.Log)
	if err != nil {
		return nil, err
	}
	// Experiment B records lseek in addition to read/write/openat.
	cy = cy.FilterCalls("read", "write", "openat", "pread64", "pwrite64", "lseek")

	site := posix.Cfg.Site
	in := core.FromEventLog(cy).WithMapping(envMapping(site, 0))
	full, part := in.PartitionByCID("mpiio")
	st := in.Stats()
	skip := map[string]bool{"openat": true} // as in the paper's Figure 9
	var text bytes.Buffer
	txt := render.Text{Graph: full, Stats: st, Partition: part, SkipCalls: skip}
	if err := txt.Render(&text); err != nil {
		return nil, err
	}
	dot := render.DOT{Graph: full, Stats: st, Styler: render.PartitionColoring{Partition: part}, SkipCalls: skip}
	text.WriteString("\n")
	if err := dot.Render(&text); err != nil {
		return nil, err
	}
	r.Text = text.String()

	// Green: the MPI-IO interface uses pread64/pwrite64.
	for _, a := range []pm.Activity{"pwrite64:$SCRATCH", "pread64:$SCRATCH"} {
		r.check(fmt.Sprintf("%s green", a), part.Node(a) == dfg.Green, part.Node(a).String(), "green")
	}
	// Red: the standard calls and the lseeks occur only without MPI-IO.
	for _, a := range []pm.Activity{"write:$SCRATCH", "read:$SCRATCH", "lseek:$SCRATCH"} {
		r.check(fmt.Sprintf("%s red", a), part.Node(a) == dfg.Red, part.Node(a).String(), "red")
	}
	// Startup activities occur in both runs.
	for _, a := range []pm.Activity{"read:$SOFTWARE", "write:Node Local"} {
		r.check(fmt.Sprintf("%s shared", a), part.Node(a) == dfg.Shared, part.Node(a).String(), "shared")
	}
	// "The number of lseek calls … is significantly lower in the run
	// that uses MPI-IO": zero on $SCRATCH.
	lseekCount := 0
	mpiio.Log.Events(func(e trace.Event) {
		if e.Call == "lseek" {
			lseekCount++
		}
	})
	r.checkInt("lseek events in MPI-IO run", lseekCount, 0)
	// "The reduction in the number of system calls …": strictly fewer
	// events in the MPI-IO run.
	r.check("MPI-IO issues fewer syscalls",
		mpiio.Log.NumEvents() < posix.Log.NumEvents(),
		fmt.Sprintf("%d vs %d", mpiio.Log.NumEvents(), posix.Log.NumEvents()), "fewer")
	// "… resulted in a relatively reduced load in terms of overall
	// duration": total $SCRATCH time of the MPI-IO run does not exceed
	// the POSIX run's (the paper measures a 0.42-vs-0.56 split; our
	// model yields near-parity since it credits MPI-IO only for the
	// removed system calls — see EXPERIMENTS.md).
	durOf := func(log *trace.EventLog) time.Duration {
		var d time.Duration
		log.Events(func(e trace.Event) {
			if e.FP != "" && e.Call != "openat" && containsPath(e.FP, site.Scratch) {
				d += e.Dur
			}
		})
		return d
	}
	dp, dm := durOf(posix.Log), durOf(mpiio.Log)
	r.check("MPI-IO total data-path time ≤ 1.05× POSIX", float64(dm) <= 1.05*float64(dp),
		fmt.Sprintf("%v vs %v", dm.Round(time.Millisecond), dp.Round(time.Millisecond)), "≤ 1.05×")
	return r, nil
}

func containsPath(fp, prefix string) bool {
	return len(fp) >= len(prefix) && fp[:len(prefix)] == prefix
}

// ablationLocks reruns the Figure 8b pipeline with the two contention
// mechanisms disabled, demonstrating that the paper's headline signal
// (the SSF openat/write load dominance) is produced by those mechanisms
// and not by an artifact of the pipeline.
func ablationLocks(scale Scale) (*Report, error) {
	r := &Report{ID: "ab-locks", Title: "ablation: contention mechanisms off ⇒ Figure 8b signal collapses"}
	params := simfs.DefaultParams()
	params.DisableWriteTokens = true
	params.DisableSharedOpen = true
	cx, ssf, _, err := runSSFandFPP(scale, &params)
	if err != nil {
		return nil, err
	}
	site := ssf.Cfg.Site
	in := core.FromEventLog(cx).FilterPath(site.Scratch).WithMapping(envMapping(site, 1))
	st := in.Stats()
	r.Text = render.StatsTable(st)

	rdOpenSSF := st.Get("openat:$SCRATCH/ssf").RelDur
	rdWriteSSF := st.Get("write:$SCRATCH/ssf").RelDur
	rdWriteFPP := st.Get("write:$SCRATCH/fpp").RelDur
	r.check("openat ssf load collapses", rdOpenSSF < 0.05, fmt.Sprintf("%.4f", rdOpenSSF), "< 0.05")
	r.check("write ssf ≈ write fpp (within 2×)",
		rdWriteSSF < 2*rdWriteFPP+0.02,
		fmt.Sprintf("%.4f vs %.4f", rdWriteSSF, rdWriteFPP), "≈")
	r.checkInt("revocations", ssf.FS.Revocations, 0)
	return r, nil
}

// ablationSkew verifies the paper's remark that unsynchronized clocks
// across hosts perturb the max-concurrency statistic but affect neither
// the DFG nor the other metrics (Section IV-B).
func ablationSkew() (*Report, error) {
	r := &Report{ID: "ab-skew", Title: "ablation: host clock skew perturbs mc only (Section IV-B)"}
	run := func(skew time.Duration) (*dfg.Graph, *core.Inspector, error) {
		cfg := iorsim.Config{
			CID: "skew", Ranks: 8, Hosts: 2, TransferSize: 1 << 20, BlockSize: 4 << 20,
			Segments: 2, Write: true, Read: true, ReorderTasks: true, Seed: 99,
		}
		res, err := iorsim.Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		log := res.Log
		if skew != 0 {
			log = shiftHost(log, res.World.Ranks[len(res.World.Ranks)-1].Host, skew)
		}
		in := core.FromEventLog(log).WithMapping(envMapping(res.Cfg.Site, 1))
		return in.DFG(), in, nil
	}
	g0, in0, err := run(0)
	if err != nil {
		return nil, err
	}
	g1, in1, err := run(3 * time.Second)
	if err != nil {
		return nil, err
	}
	r.check("DFG identical under skew", g0.Equal(g1), fmt.Sprintf("%v", g0.Equal(g1)), "true")
	a := pm.Activity("write:$SCRATCH/ssf")
	mc0 := in0.Stats().Get(a).MaxConc
	mc1 := in1.Stats().Get(a).MaxConc
	r.check("mc perturbed by skew", mc1 < mc0,
		fmt.Sprintf("%d vs %d", mc1, mc0), "lower under skew")
	r.check("relative durations unchanged",
		fmt.Sprintf("%.6f", in0.Stats().Get(a).RelDur) == fmt.Sprintf("%.6f", in1.Stats().Get(a).RelDur),
		fmt.Sprintf("%.6f vs %.6f", in0.Stats().Get(a).RelDur, in1.Stats().Get(a).RelDur), "equal")
	r.Text = r.Summary()
	return r, nil
}

// shiftHost returns a copy of the log with every event of the given host
// shifted by the skew, emulating an unsynchronized system clock.
func shiftHost(log *trace.EventLog, host string, skew time.Duration) *trace.EventLog {
	out := log.Clone()
	for _, c := range out.Cases() {
		if c.ID.Host != host {
			continue
		}
		for i := range c.Events {
			c.Events[i].Start += skew
		}
	}
	return out
}
