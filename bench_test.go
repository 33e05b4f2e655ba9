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
// Whole-pipeline throughput at real sizes (ingest, re-ingest, sharded
// and checkpointed folds, live sessions) is the repository benchmark's
// job: see bench/README.md.
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stinspector/internal/archive"
	"stinspector/internal/dfg"
	"stinspector/internal/experiments"
	"stinspector/internal/lssim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
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
					c := stats.NewComputer(mapping)
					for _, cs := range el.Cases() {
						c.Add(cs)
					}
					if st := c.Finalize(); len(st.Activities()) == 0 {
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
			g := dfg.Build(&pm.Log{})
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

// BenchmarkParseCase: full trace-stream parse incl. unfinished/resumed
// merging.
func BenchmarkParseCase(b *testing.B) {
	var buf bytes.Buffer
	id := trace.CaseID{CID: "bench", Host: "h", RID: 1}
	w := strace.NewWriter(&buf)
	el := synthLog(20_000, 1, 16, 5)
	if err := w.WriteCase(el.Cases()[0]); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := strace.ParseCase(id, bytes.NewReader(data), strace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if c.Len() == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkArchiveWrite: the STA consolidation substrate, through the
// crash-safe file write `stinspect archive` uses (fsync included).
func BenchmarkArchiveWrite(b *testing.B) {
	el := synthLog(100_000, 16, 32, 6)
	path := filepath.Join(b.TempDir(), "bench.sta")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := archive.WriteFileV2(path, el); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(path); err == nil {
		b.SetBytes(fi.Size())
	}
}

// BenchmarkArchiveV2RandomAccess: reading one case through
// Reader.StreamRange (the path `stinspect -cases a:b` reaches) is O(1)
// in the archive size — the index addresses every section directly, so
// the ns/op of reading one mid-file case must be flat across a 64×
// file-size sweep.
func BenchmarkArchiveV2RandomAccess(b *testing.B) {
	const perCase = 200
	for _, nCases := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("cases=%d", nCases), func(b *testing.B) {
			el := synthLog(nCases*perCase, nCases, 32, 17)
			r, err := archive.Open(writeArchive(b, el))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			mid := nCases / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := r.StreamRange(mid, mid+1, 1, 1)
				c, err := src.Next()
				src.Close()
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
		r, err := experiments.Run("fig8b", experiments.Scale{Seed: int64(i + 1)})
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
		r, err := experiments.Run("fig9", experiments.Scale{Seed: int64(i + 1)})
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
	full := FromEventLog(el).WithMapping(m).DFG()
	g, r := el.Partition(func(c *trace.Case) bool { return c.ID.RID%2 == 0 })
	gg, rg := FromEventLog(g).WithMapping(m).DFG(), FromEventLog(r).WithMapping(m).DFG()
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
	in := FromEventLog(el).WithMapping(m)
	g, g2 := in.DFG(), FromEventLog(el.FilterCalls("read", "write")).WithMapping(m).DFG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa := NewFootprint(g)
		fb := NewFootprint(g2)
		if fa.Similarity(fb) <= 0 {
			b.Fatal("bad similarity")
		}
	}
}
