package stinspector

// The benchmark harness regenerates every evaluation artifact of the
// paper and measures the complexity claims of Section V:
//
//   - BenchmarkFig* runs the full per-figure pipelines (workload
//     generation or simulation, mapping, DFG synthesis, statistics,
//     coloring, rendering);
//   - BenchmarkMappingScaling / BenchmarkDFGScaling verify the O(n)
//     claims for mapping application and DFG construction;
//   - BenchmarkStatsScaling verifies the O(mn) claim for the statistics
//     (n events, m activities);
//   - BenchmarkRenderScaling verifies the O(m²) worst case of rendering
//     (every node connected to every other);
//   - BenchmarkParse / BenchmarkArchive measure the ingestion substrates.
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"stinspector/internal/archive"
	"stinspector/internal/dfg"
	"stinspector/internal/experiments"
	"stinspector/internal/lssim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
	"stinspector/internal/workloads"
)

// synthLog builds an event-log with n events spread over nc cases and m
// distinct (call, path) activity combinations.
func synthLog(n, nc, m int, seed int64) *trace.EventLog {
	rng := rand.New(rand.NewSource(seed))
	calls := []string{"read", "write", "openat", "lseek"}
	paths := make([]string, (m+len(calls)-1)/len(calls))
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/dir%02d/file", i)
	}
	perCase := n / nc
	cases := make([]*trace.Case, nc)
	for c := 0; c < nc; c++ {
		evs := make([]trace.Event, perCase)
		start := time.Duration(0)
		for i := range evs {
			start += time.Duration(rng.Intn(2000)) * time.Microsecond
			evs[i] = trace.Event{
				PID:   100 + c,
				Call:  calls[(c+i)%len(calls)],
				Start: start,
				Dur:   time.Duration(10+rng.Intn(500)) * time.Microsecond,
				FP:    paths[(c*7+i)%len(paths)],
				Size:  int64(rng.Intn(1 << 20)),
			}
		}
		cases[c] = trace.NewCase(trace.CaseID{CID: "bench", Host: "h", RID: c}, evs)
	}
	return trace.MustNewEventLog(cases...)
}

// --- Section V complexity claims -------------------------------------

// BenchmarkMappingScaling: applying the mapping is O(n) — ns/op should
// stay flat across sizes when divided by n (see b.ReportMetric).
func BenchmarkMappingScaling(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			el := synthLog(n, 8, 16, 1)
			m := pm.CallTopDirs{Depth: 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := pm.Build(el, m, pm.BuildOptions{Endpoints: true})
				if l.NumTraces() == 0 {
					b.Fatal("empty log")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/event")
		})
	}
}

// BenchmarkDFGScaling: DFG construction is a single pass, O(n).
func BenchmarkDFGScaling(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			el := synthLog(n, 8, 16, 2)
			l := pm.Build(el, pm.CallTopDirs{Depth: 2}, pm.BuildOptions{Endpoints: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := dfg.Build(l)
				if g.NumNodes() == 0 {
					b.Fatal("empty graph")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/event")
		})
	}
}

// BenchmarkStatsScaling: statistics are O(mn) (a pass plus per-activity
// aggregation); the sweep adds a log factor on the activity's events.
func BenchmarkStatsScaling(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		for _, m := range []int{4, 64} {
			b.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(b *testing.B) {
				el := synthLog(n, 8, m, 3)
				mapping := pm.CallTopDirs{Depth: 2}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st := stats.Compute(el, mapping)
					if len(st.Activities()) == 0 {
						b.Fatal("no stats")
					}
				}
			})
		}
	}
}

// BenchmarkRenderScaling: rendering is O(m²) in the worst case — a
// complete graph over m activities.
func BenchmarkRenderScaling(b *testing.B) {
	for _, m := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			g := dfg.New()
			acts := make([]pm.Activity, m)
			for i := range acts {
				acts[i] = pm.Activity(fmt.Sprintf("read:/d%03d", i))
				g.AddNode(acts[i], 1)
			}
			for _, from := range acts {
				for _, to := range acts {
					g.AddEdge(dfg.Edge{From: from, To: to}, 1)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := render.RenderDOT(g, nil, nil)
				if len(out) == 0 {
					b.Fatal("empty render")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m*m), "ns/edge")
		})
	}
}

// BenchmarkMaxConcurrency: the interval sweep of Equation (16).
func BenchmarkMaxConcurrency(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	intervals := make([]trace.Interval, 100_000)
	for i := range intervals {
		s := time.Duration(rng.Intn(1_000_000)) * time.Microsecond
		intervals[i] = trace.Interval{Start: s, End: s + time.Duration(rng.Intn(10_000))*time.Microsecond}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats.MaxConcurrency(intervals) == 0 {
			b.Fatal("zero")
		}
	}
}

// --- Ingestion substrates ---------------------------------------------

// BenchmarkParseLine: single strace record parse.
func BenchmarkParseLine(b *testing.B) {
	line := `9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, ..., 832) = 832 <0.000203>`
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if _, err := strace.ParseLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseCase: full trace-stream parse incl. unfinished/resumed
// merging.
func BenchmarkParseCase(b *testing.B) {
	var buf bytes.Buffer
	id := trace.CaseID{CID: "bench", Host: "h", RID: 1}
	w := strace.NewWriter(&buf)
	el := synthLog(20_000, 1, 16, 5)
	for _, e := range el.Cases()[0].Events {
		w.WriteEvent(e)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := strace.ParseCase(id, bytes.NewReader(data), strace.Options{Calls: map[string]bool{}})
		if err != nil {
			b.Fatal(err)
		}
		if c.Len() == 0 {
			b.Fatal("no events")
		}
	}
}

// synthTraceFS renders nFiles synthetic per-rank trace files into an
// in-memory filesystem (no disk noise). It is shared by the ingestion
// benchmarks and the TestStreamIngestMemory gate, so both measure the
// identical dataset.
func synthTraceFS(tb testing.TB, nFiles, perFile int) fstest.MapFS {
	tb.Helper()
	fsys := fstest.MapFS{}
	el := synthLog(nFiles*perFile, nFiles, 16, 11)
	for _, c := range el.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			tb.Fatal(err)
		}
		fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
	}
	return fsys
}

// BenchmarkReadDirParallel: the concurrent trace-ingestion pipeline over
// a multi-hundred-file synthetic trace directory, swept across worker
// counts. p=1 is the sequential baseline; on a machine with >= 4 cores
// the p=GOMAXPROCS variant is expected to be >= 2x faster (the gate is
// asserted by TestReadDirParallelSpeedup in internal/strace).
func BenchmarkReadDirParallel(b *testing.B) {
	for _, nf := range []int{50, 200} {
		fsys := synthTraceFS(b, nf, 400)
		var total int64
		for _, f := range fsys {
			total += int64(len(f.Data))
		}
		for _, p := range []int{1, 2, 4, 8, 0} {
			name := fmt.Sprintf("files=%d/p=%d", nf, p)
			if p == 0 {
				name = fmt.Sprintf("files=%d/p=gomaxprocs", nf)
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(total)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					log, err := strace.ReadFS(fsys, ".", strace.Options{Strict: true, Parallelism: p})
					if err != nil {
						b.Fatal(err)
					}
					if log.NumCases() != nf {
						b.Fatalf("got %d cases, want %d", log.NumCases(), nf)
					}
				}
			})
		}
	}
}

// BenchmarkStreamIngest: the bounded-memory streaming pipeline against
// the materializing one on the 256-rank synth set. B/op shows total
// allocation; the peak-live-B metric (live heap after GC, sampled as
// the stream advances, measured on one untimed pass) shows what each
// path keeps resident — the streaming path's is bounded by the window,
// the in-memory path's grows with the trace set. TestStreamIngestMemory
// gates the ratio at 4x.
func BenchmarkStreamIngest(b *testing.B) {
	const nFiles, perFile = 256, 400
	fsys := synthTraceFS(b, nFiles, perFile)
	var total int64
	for _, f := range fsys {
		total += int64(len(f.Data))
	}
	opts := strace.Options{Strict: true, Parallelism: 4, Window: 8}

	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	b.Run("inmemory", func(b *testing.B) {
		base := liveHeap()
		el, err := strace.ReadFS(fsys, ".", opts)
		if err != nil {
			b.Fatal(err)
		}
		peak := liveHeap() - base
		runtime.KeepAlive(el)
		el = nil
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			log, err := strace.ReadFS(fsys, ".", opts)
			if err != nil {
				b.Fatal(err)
			}
			if log.NumCases() != nFiles {
				b.Fatal("lost cases")
			}
		}
		b.ReportMetric(float64(peak), "peak-live-B")
	})

	b.Run("stream/window=8", func(b *testing.B) {
		walk := func(sample bool) (peak uint64, resident int) {
			base := uint64(0)
			if sample {
				base = liveHeap()
			}
			src, err := strace.StreamFS(fsys, ".", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			cases := 0
			err = source.Walk(src, true, func(c *trace.Case) error {
				cases++
				if sample && cases%32 == 0 {
					if h := liveHeap() - base; h > peak {
						peak = h
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if cases != nFiles {
				b.Fatal("lost cases")
			}
			return peak, source.PeakResident(src)
		}
		peak, resident := walk(true)
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			walk(false)
		}
		b.ReportMetric(float64(peak), "peak-live-B")
		b.ReportMetric(float64(resident), "resident-cases")
	})
}

// BenchmarkAnalyzeStreamParallel: the sharded analysis fold (activity
// log + DFG + statistics synthesis) over an already-materialized
// event-log, so the numbers isolate analysis throughput from parsing —
// the counterpart of BenchmarkReadDirParallel for the stage after
// ingestion. Swept at shards 1 / 4 / GOMAXPROCS; every setting produces
// byte-identical artifacts (stream_equiv_test.go), so the sweep
// measures a pure throughput knob. The events/s metric is the one
// stbench -ingest reports and TestAnalyzeParallelSpeedup gates.
func BenchmarkAnalyzeStreamParallel(b *testing.B) {
	el := synthLog(200_000, 64, 32, 13)
	for _, shards := range []int{1, 4, 0} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "shards=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := source.FromLog(el)
				res, err := AnalyzeStreamParallel(src, CallTopDirs{Depth: 2}, shards, true)
				if err != nil {
					b.Fatal(err)
				}
				if res.Events != el.NumEvents() {
					b.Fatalf("lost events: got %d, want %d", res.Events, el.NumEvents())
				}
				src.Close()
			}
			b.ReportMetric(float64(el.NumEvents())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkArchiveReadParallel: concurrent STA section decode.
func BenchmarkArchiveReadParallel(b *testing.B) {
	el := synthLog(100_000, 64, 32, 12)
	var buf bytes.Buffer
	if err := archive.WriteV2(&buf, el); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, p := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				got, err := drainArchive(data, p)
				if err != nil {
					b.Fatal(err)
				}
				if got.NumEvents() != el.NumEvents() {
					b.Fatal("lost events")
				}
			}
		})
	}
}

// BenchmarkArchiveWrite / Read: the STA consolidation substrate.
func BenchmarkArchiveWrite(b *testing.B) {
	el := synthLog(100_000, 16, 32, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := archive.WriteV2(&buf, el); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkArchiveRead(b *testing.B) {
	el := synthLog(100_000, 16, 32, 7)
	var buf bytes.Buffer
	if err := archive.WriteV2(&buf, el); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := drainArchive(data, 0)
		if err != nil {
			b.Fatal(err)
		}
		if got.NumEvents() != el.NumEvents() {
			b.Fatal("lost events")
		}
	}
}

// drainArchive materializes an in-memory archive image through the
// ReadAt decode path with the given worker count.
func drainArchive(data []byte, parallelism int) (*EventLog, error) {
	r, err := archive.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	src := r.Stream(parallelism, 0)
	defer src.Close()
	return source.Drain(src, false)
}

// BenchmarkArchiveReingest: streaming re-ingestion of the columnar
// archive with its persisted symbol dictionary, zero-copy, through the
// ordered-source walk — the near-zero-parse path BENCHMARKS.md tracks.
func BenchmarkArchiveReingest(b *testing.B) {
	el := synthLog(100_000, 64, 32, 12)
	var buf bytes.Buffer
	if err := archive.WriteV2(&buf, el); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := archive.NewReaderBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		src := r.Stream(4, 8)
		events := 0
		err = source.Walk(src, true, func(c *trace.Case) error {
			events += c.Len()
			return nil
		})
		src.Close()
		if err != nil {
			b.Fatal(err)
		}
		if events != el.NumEvents() {
			b.Fatal("lost events")
		}
	}
}

// BenchmarkArchiveV2RandomAccess: ReadCaseAt is O(1) in the archive
// size — the index addresses every section directly, so the ns/op of
// reading one mid-file case must be flat across a 64× file-size sweep.
func BenchmarkArchiveV2RandomAccess(b *testing.B) {
	const perCase = 200
	for _, nCases := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("cases=%d", nCases), func(b *testing.B) {
			el := synthLog(nCases*perCase, nCases, 32, 17)
			var buf bytes.Buffer
			if err := archive.WriteV2(&buf, el); err != nil {
				b.Fatal(err)
			}
			r, err := archive.NewReaderBytes(buf.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := r.ReadCaseAt(nCases / 2)
				if err != nil {
					b.Fatal(err)
				}
				if c.Len() != perCase {
					b.Fatal("wrong case")
				}
			}
		})
	}
}

// --- Per-figure pipelines ----------------------------------------------

// BenchmarkFig3DFG: the ls / ls -l methodology pipeline (Figures 2-3):
// generation, union, mapping, DFG, stats, partition coloring, DOT.
func BenchmarkFig3DFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, cx := lssim.Both(lssim.Config{})
		in := FromEventLog(cx)
		full, part := in.PartitionByCID("a")
		out := RenderDOT(full, in.Stats(), PartitionColoring{Partition: part})
		if !strings.Contains(out, "digraph") {
			b.Fatal("bad render")
		}
	}
}

// BenchmarkFig4Filter: the filtered file-level view of Figure 4.
func BenchmarkFig4Filter(b *testing.B) {
	_, _, cx := lssim.Both(lssim.Config{})
	for i := 0; i < b.N; i++ {
		in := FromEventLog(cx).FilterPath("/usr/lib").WithMapping(CallFileName{Keep: 2})
		if in.DFG().NumNodes() != 5 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkFig5Timeline: interval extraction and rendering of Figure 5.
func BenchmarkFig5Timeline(b *testing.B) {
	cb := lssim.LSL(lssim.Config{})
	in := FromEventLog(cb)
	for i := 0; i < b.N; i++ {
		tl := in.Timeline("read:/usr/lib")
		if MaxConcurrency(tl) != 2 {
			b.Fatal("bad mc")
		}
		if len(RenderTimeline(tl)) == 0 {
			b.Fatal("bad render")
		}
	}
}

// BenchmarkFig8Pipeline: the full experiment-A reproduction (two IOR
// simulations at paper scale, 96 ranks × 2 runs, plus DFG synthesis and
// the checks).
func BenchmarkFig8Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8b(experiments.Scale{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Failed()) > 0 {
			b.Fatalf("checks failed: %v", r.Failed())
		}
	}
}

// BenchmarkFig9Pipeline: the full experiment-B reproduction (POSIX vs
// MPI-IO partition coloring at paper scale).
func BenchmarkFig9Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Scale{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Failed()) > 0 {
			b.Fatalf("checks failed: %v", r.Failed())
		}
	}
}

// BenchmarkPartitionClassify: the Section IV-C classification on a large
// synthetic graph.
func BenchmarkPartitionClassify(b *testing.B) {
	el := synthLog(100_000, 16, 64, 8)
	m := pm.CallTopDirs{Depth: 2}
	full := BuildDFG(el, m)
	g, r := el.Partition(func(c *trace.Case) bool { return c.ID.RID%2 == 0 })
	gg, rg := BuildDFG(g, m), BuildDFG(r, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Classify(full, gg, rg)
		if len(p.Nodes) == 0 {
			b.Fatal("empty partition")
		}
	}
}

// --- Workload and structural-analysis benchmarks ------------------------

// BenchmarkWorkloadCheckpoint: the shared-checkpoint workload end to end
// (simulation + DFG synthesis).
func BenchmarkWorkloadCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workloads.Checkpoint(workloads.CheckpointConfig{
			Shared: true, Ranks: 16, Rounds: 3, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if FromEventLog(res.Log).DFG().NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkWorkloadSharedLog: maximal token bouncing.
func BenchmarkWorkloadSharedLog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workloads.SharedLog(workloads.SharedLogConfig{
			Ranks: 16, Records: 32, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.FS.Revocations == 0 {
			b.Fatal("no contention")
		}
	}
}

// BenchmarkFootprint: relation-matrix derivation and diff on a synthetic
// 64-activity graph.
func BenchmarkFootprint(b *testing.B) {
	el := synthLog(50_000, 8, 64, 9)
	m := pm.CallTopDirs{Depth: 2}
	g := BuildDFG(el, m)
	g2 := BuildDFG(el.FilterCalls("read", "write"), m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa := NewFootprint(g)
		fb := NewFootprint(g2)
		if fa.Similarity(fb) <= 0 {
			b.Fatal("bad similarity")
		}
	}
}

// BenchmarkRegroupByPID: the Section IV case-redefinition on a large log.
func BenchmarkRegroupByPID(b *testing.B) {
	el := synthLog(200_000, 16, 32, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if el.RegroupByPID().NumEvents() != el.NumEvents() {
			b.Fatal("lost events")
		}
	}
}
