package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// sizes are the generated input sizes of every workload.
type sizes struct {
	iorRanks, iorSegments  int
	archCases, archPerCase int // per profile
	ckptCases, ckptPerCase int
	livePerFile            int
	liveFilesPerSecond     int
}

// fullSize is what the benchmark measures; toySize is what its
// self-test runs through the same code.
var (
	fullSize = sizes{iorRanks: 96, iorSegments: 16, archCases: 128, archPerCase: 2000, ckptCases: 128, ckptPerCase: 2000, livePerFile: 100, liveFilesPerSecond: 100}
	toySize  = sizes{iorRanks: 8, iorSegments: 4, archCases: 8, archPerCase: 50, ckptCases: 32, ckptPerCase: 100, livePerFile: 20, liveFilesPerSecond: 100}
)

// workload is one set of generated inputs and the loop that measures
// the program on them. Why each exists is recorded in BENCHMARK.json.
type workload struct {
	name    string
	setup   func(dir string, seed int64, seconds int, sz sizes) (oracle, error)
	measure func(dir string, o oracle, seconds int) (report, error)
	trace   func(dir string, o oracle, rec *recorder) (report, error)
}

var workloads = []workload{
	{name: "ior_compare", setup: setupCompare, measure: measureCompare, trace: traceCompare},
	{name: "archive_reanalyze", setup: setupReanalyze, measure: measureReanalyze, trace: traceReanalyze},
	{name: "checkpointed_fold", setup: setupCheckpointed, measure: measureCheckpointed, trace: traceCheckpointed},
	{name: "live_session", setup: setupLiveSession, measure: measureLive, trace: traceLive},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is what a measure child hands the parent: the operations it
// attempted, those whose output was wrong or that failed, and the
// metrics it measured.
type report struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Raw holds CPU-bound metrics as measured, before scaling to the
	// reference host speed by HostFactor (see calib.go).
	Raw        map[string]float64 `json:"raw,omitempty"`
	HostFactor float64            `json:"host_factor,omitempty"`
}

// setScaled records a CPU-bound metric as measured in Raw and at the
// reference host speed in Metrics: a rate divides by the factor, a time
// or a cost multiplies by it.
func (r *report) setScaled(name string, raw float64, rate bool, f float64) {
	if r.Raw == nil {
		r.Raw = make(map[string]float64)
	}
	r.Raw[name] = raw
	if rate {
		r.Metrics[name] = raw / f
	} else {
		r.Metrics[name] = raw * f
	}
}

// check counts one operation and records it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) checkDigest(what, got, want string) {
	r.check(got == want, "%s: digest %.12s, oracle %.12s", what, got, want)
}

// minIterations keeps a batch median meaningful when one iteration
// outlasts the run.
const minIterations = 3

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// timedLoop runs op once to warm up, then closed-loop until seconds
// have passed (and at least minIterations times), checking every result
// against the oracle. Each iteration's wall time is one latency sample.
// after, if set, runs untimed after each iteration with its index. The
// calibration kernel runs untimed before every iteration.
func timedLoop(rep *report, o oracle, seconds int, op func(i int) (string, int, error), after func(i int) error) error {
	iter := func(i int) (time.Duration, error) {
		t0 := time.Now()
		d, events, err := op(i)
		wall := time.Since(t0)
		if err != nil {
			return 0, err
		}
		rep.checkDigest(fmt.Sprintf("iteration %d", i), d, o.Digest)
		rep.check(events == o.Events, "iteration %d: %d events, oracle %d", i, events, o.Events)
		if after != nil {
			if err := after(i); err != nil {
				return 0, err
			}
		}
		return wall, nil
	}
	if _, err := iter(0); err != nil {
		return err
	}
	var walls []float64
	var cal calibration
	var cpu float64
	start := time.Now()
	for i := 1; len(walls) < minIterations || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		cal.sample()
		cpu0 := cpuSeconds()
		wall, err := iter(i)
		if err != nil {
			return err
		}
		cpu += cpuSeconds() - cpu0
		walls = append(walls, wall.Seconds())
	}
	f := cal.factor()
	rep.HostFactor = f
	med := quantile(walls, 0.5)
	rep.setScaled("events_per_s", float64(o.Events)/med, true, f)
	rep.setScaled("cpu_s_per_mevent", cpu/float64(o.Events*len(walls))*1e6, false, f)
	rep.setScaled("latency_p50_ms", med*1e3, false, f)
	rep.setScaled("latency_p90_ms", quantile(walls, 0.9)*1e3, false, f)
	return nil
}

// replayPair runs a replay untraced and then traced under one root, and
// fills the span-derived layer metrics and the tracing overhead: how
// much longer the traced replay took than the untraced one.
func replayPair(rep *report, o oracle, rec *recorder, replay func(rec *recorder) (string, replayCounts, error)) (replayCounts, error) {
	t0 := time.Now()
	d, _, err := replay(nil)
	if err != nil {
		return replayCounts{}, err
	}
	plain := time.Since(t0)
	rep.checkDigest("untraced replay", d, o.Digest)

	rec.begin("replay")
	d, rc, err := replay(rec)
	rec.end()
	if err != nil {
		return rc, err
	}
	rep.checkDigest("traced replay", d, o.Digest)
	t := rec.totals("replay")
	replayLayers(rep.Metrics, t, rc)
	if rc.parsedEvents > 0 {
		rep.Metrics["strace.allocs_per_event"] = float64(rec.allocs["strace.parse"]) / float64(rc.parsedEvents)
	}
	rep.Metrics["trace.overhead"] = t.wall.Seconds()/plain.Seconds() - 1
	cov := t.coverage()
	rep.check(cov >= 0.9, "layer self times cover %.1f%% of the traced replay, want >= 90%%", cov*100)
	return rc, nil
}

// traceReal runs the real operation once under its own root and fills
// the core and archive-source metrics from it.
func traceReal(rep *report, o oracle, rec *recorder, phase string, run func(rec *recorder) (string, realCounts, error)) (realCounts, error) {
	rec.begin("real")
	d, rc, err := run(rec)
	rec.end()
	if err != nil {
		return rc, err
	}
	rep.checkDigest("traced run", d, o.Digest)
	rep.Metrics["core.fold_s"] = rec.totals("real").self[phase].Seconds()
	rep.Metrics["core.allocs_per_event"] = float64(rec.allocs[phase]) / float64(rc.events)
	rep.Metrics["source.peak_resident"] = float64(rc.peakResident)
	return rc, nil
}

// traceDecode measures the archive decode alone.
func traceDecode(rep *report, o oracle, rec *recorder, path string) error {
	rec.begin("decode")
	events, err := drainArchive(path, rec)
	rec.end()
	if err != nil {
		return err
	}
	rep.check(events == o.Events, "decode-only drain: %d events, oracle %d", events, o.Events)
	rep.Metrics["archive.decode_s"] = rec.totals("decode").self["archive.decode"].Seconds()
	rep.Metrics["archive.allocs_per_event"] = float64(rec.allocs["archive.decode"]) / float64(events)
	return nil
}

// ---- ior_compare ----

func setupCompare(dir string, seed int64, _ int, sz sizes) (oracle, error) {
	return setupIOR(filepath.Join(dir, "traces"), seed, sz.iorRanks, sz.iorSegments)
}

func measureCompare(dir string, o oracle, seconds int) (report, error) {
	rep := newReport()
	traces := filepath.Join(dir, "traces")
	err := timedLoop(&rep, o, seconds, func(int) (string, int, error) { return runCompare(traces) }, nil)
	return rep, err
}

func traceCompare(dir string, o oracle, rec *recorder) (report, error) {
	rep := newReport()
	traces := filepath.Join(dir, "traces")
	d, _, err := runCompare(traces)
	if err != nil {
		return rep, err
	}
	rep.checkDigest("warm-up", d, o.Digest)
	_, err = replayPair(&rep, o, rec, func(rec *recorder) (string, replayCounts, error) { return replayCompare(traces, rec) })
	return rep, err
}

// ---- archive_reanalyze ----

var reanalyzeProfiles = []string{"heavytail", "burst", "behavior"}

func corpusPath(dir string) string { return filepath.Join(dir, "corpus.sta") }

func setupReanalyze(dir string, seed int64, _ int, sz sizes) (oracle, error) {
	return setupArchive(corpusPath(dir), seed, reanalyzeProfiles, sz.archCases, sz.archPerCase, false)
}

func measureReanalyze(dir string, o oracle, seconds int) (report, error) {
	rep := newReport()
	err := timedLoop(&rep, o, seconds, func(int) (string, int, error) {
		d, rc, err := runReanalyze(corpusPath(dir), nil)
		return d, rc.events, err
	}, nil)
	return rep, err
}

func traceReanalyze(dir string, o oracle, rec *recorder) (report, error) {
	rep := newReport()
	path := corpusPath(dir)
	d, _, err := runReanalyze(path, nil)
	if err != nil {
		return rep, err
	}
	rep.checkDigest("warm-up", d, o.Digest)
	if _, err := traceReal(&rep, o, rec, "core.analyze", func(rec *recorder) (string, realCounts, error) { return runReanalyze(path, rec) }); err != nil {
		return rep, err
	}
	if err := traceDecode(&rep, o, rec, path); err != nil {
		return rep, err
	}
	_, err = replayPair(&rep, o, rec, func(rec *recorder) (string, replayCounts, error) { return replayReanalyze(path, rec) })
	return rep, err
}

// ---- checkpointed_fold ----

func setupCheckpointed(dir string, seed int64, _ int, sz sizes) (oracle, error) {
	return setupArchive(corpusPath(dir), seed, []string{"multitenant"}, sz.ckptCases, sz.ckptPerCase, true)
}

// checkCheckpoint compares the final checkpoint in ckdir with the
// oracle's bytes and removes the directory.
func checkCheckpoint(rep *report, o oracle, what, ckdir string) error {
	sum, err := fileSHA(checkpointPath(ckdir))
	if err != nil {
		return err
	}
	rep.check(sum == o.CkptSHA, "%s: final checkpoint %.12s, oracle %.12s", what, sum, o.CkptSHA)
	return os.RemoveAll(ckdir)
}

func measureCheckpointed(dir string, o oracle, seconds int) (report, error) {
	rep := newReport()
	ckdir := func(i int) string { return filepath.Join(dir, "ckpt-"+strconv.Itoa(i)) }
	err := timedLoop(&rep, o, seconds, func(i int) (string, int, error) {
		d, rc, err := runCheckpointed(corpusPath(dir), ckdir(i), nil)
		return d, rc.events, err
	}, func(i int) error {
		return checkCheckpoint(&rep, o, fmt.Sprintf("iteration %d", i), ckdir(i))
	})
	return rep, err
}

func traceCheckpointed(dir string, o oracle, rec *recorder) (report, error) {
	rep := newReport()
	path := corpusPath(dir)
	warm := filepath.Join(dir, "ckpt-warm")
	d, _, err := runCheckpointed(path, warm, nil)
	if err != nil {
		return rep, err
	}
	rep.checkDigest("warm-up", d, o.Digest)
	if err := checkCheckpoint(&rep, o, "warm-up", warm); err != nil {
		return rep, err
	}
	real := filepath.Join(dir, "ckpt-real")
	rc, err := traceReal(&rep, o, rec, "core.checkpointed", func(rec *recorder) (string, realCounts, error) {
		return runCheckpointed(path, real, rec)
	})
	if err != nil {
		return rep, err
	}
	if err := checkCheckpoint(&rep, o, "traced run", real); err != nil {
		return rep, err
	}
	rep.Metrics["snapshot.ckpt_written_mb"] = float64(rc.written) / 1e6
	if err := traceDecode(&rep, o, rec, path); err != nil {
		return rep, err
	}
	n := 0
	replay := func(rec *recorder) (string, replayCounts, error) {
		n++
		ckdir := filepath.Join(dir, "ckpt-replay-"+strconv.Itoa(n))
		d, rc, err := replayCheckpointed(path, ckdir, rec)
		if err != nil {
			return d, rc, err
		}
		return d, rc, checkCheckpoint(&rep, o, "replay", ckdir)
	}
	rrc, err := replayPair(&rep, o, rec, replay)
	if err != nil {
		return rep, err
	}
	rep.check(rrc.written == rc.written, "replay wrote %d checkpoint bytes, the run %d", rrc.written, rc.written)
	return rep, nil
}
