package stinspector

// Streaming/in-memory equivalence properties: for synth-generated trace
// directories, STA archives and DXT dumps, the streaming pipeline's
// activity-log (variants, multiplicities and case lists), DFG,
// footprint matrix, behavior profile and all four Section IV-B
// statistics must be
// byte-identical to the in-memory pipeline at ingestion parallelism 1,
// 4 and GOMAXPROCS × analysis shards 1, 4 and GOMAXPROCS — the
// acceptance bar of the streaming and sharded-analysis refactors. The
// comparison serializes every float with strconv at full precision, so
// even a last-bit divergence (a re-ordered floating-point fold, say)
// fails.

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"

	"stinspector/internal/dxt"
	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// equivParallelisms are the worker counts the property must hold at.
func equivParallelisms() []int {
	ps := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		ps = append(ps, p)
	}
	return ps
}

// artifacts serializes the full synthesis output — activity-log with
// per-variant case lists, DFG listing, footprint matrix, behavior
// profile, and the four per-activity statistics at full float precision
// — into one comparable string.
func artifacts(l *ActivityLog, g *DFG, st *Stats, bh *BehaviorProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "log traces=%d variants=%d mapped=%d unmapped=%d\n",
		l.NumTraces(), l.NumVariants(), l.MappedEvents(), l.UnmappedEvents())
	for _, v := range l.Variants() {
		fmt.Fprintf(&b, "  %d× %s %v\n", v.Mult, v.Seq, v.Cases)
	}
	b.WriteString(RenderText(g, st, nil))
	b.WriteString(NewFootprint(g).String())
	b.WriteString(bh.RenderText())
	for _, a := range st.Activities() {
		s := st.Get(a)
		fmt.Fprintf(&b, "%s events=%d totaldur=%d reldur=%s bytes=%d/%v procrate=%s maxconc=%d\n",
			a, s.Events, int64(s.TotalDur),
			strconv.FormatFloat(s.RelDur, 'g', -1, 64),
			s.Bytes, s.HasBytes,
			strconv.FormatFloat(s.ProcRate, 'g', -1, 64),
			s.MaxConc)
	}
	return b.String()
}

// inMemoryArtifacts runs the materialized pipeline over an event-log.
func inMemoryArtifacts(el *EventLog) string {
	in := FromEventLog(el)
	return artifacts(in.ActivityLog(), in.DFG(), in.Stats(), in.Behavior())
}

// streamArtifacts runs the bounded-memory pipeline over a source with
// the analysis fold sharded shards ways.
func streamArtifacts(t *testing.T, src Source, shards int, joinErrors bool) string {
	t.Helper()
	defer src.Close()
	res, err := AnalyzeStreamParallel(src, CallTopDirs{Depth: 2}, shards, joinErrors)
	if err != nil {
		t.Fatal(err)
	}
	return artifacts(res.ActivityLog, res.DFG, res.Stats, res.Behavior)
}

// equivCheck compares the streaming artifacts against the in-memory
// baseline for every ingestion-parallelism/window/analysis-shard
// combination.
func equivCheck(t *testing.T, kind, want string, open func(parallelism, window int) Source) {
	t.Helper()
	for _, p := range equivParallelisms() {
		for _, w := range []int{0, 1, 3} {
			for _, shards := range equivParallelisms() {
				got := streamArtifacts(t, open(p, w), shards, true)
				if got != want {
					t.Errorf("%s: streaming artifacts differ from in-memory at parallelism=%d window=%d ashards=%d.\n--- streaming ---\n%s\n--- in-memory ---\n%s",
						kind, p, w, shards, got, want)
				}
			}
		}
	}
}

// equivCheckStrace runs equivCheck over the trace files of fsys, once
// over the process-wide string table and once over a scoped table
// created fresh for each run. A scoped pass must be byte-identical to
// the process-wide one: string tables only decide string retention,
// never content.
func equivCheckStrace(t *testing.T, kind, want string, fsys fs.FS) {
	t.Helper()
	for _, scoped := range []bool{false, true} {
		equivCheck(t, fmt.Sprintf("%s scoped=%v", kind, scoped), want, func(p, w int) Source {
			opts := strace.Options{Strict: true, Parallelism: p, Window: w}
			if scoped {
				opts.Syms = intern.NewTable()
			}
			src, err := strace.StreamFS(fsys, ".", opts)
			if err != nil {
				t.Fatal(err)
			}
			return src
		})
	}
}

// straceFS renders every case of log as a trace file.
func straceFS(t *testing.T, log *trace.EventLog) fstest.MapFS {
	t.Helper()
	fsys := fstest.MapFS{}
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
	}
	return fsys
}

// drainStrace parses the trace files of fsys sequentially into an
// event-log.
func drainStrace(t *testing.T, fsys fs.FS) *trace.EventLog {
	t.Helper()
	src, err := strace.StreamFS(fsys, ".", strace.Options{Strict: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	el, err := source.Drain(src, true)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// TestStreamEquivalenceStraceDir: trace-directory ingestion.
func TestStreamEquivalenceStraceDir(t *testing.T) {
	fsys := straceFS(t, synth.Log("eq", 41, 160, 20240924))
	equivCheckStrace(t, "strace", inMemoryArtifacts(drainStrace(t, fsys)), fsys)
}

// TestStreamEquivalenceArchive: STA section decode through the
// facade's path-level entry points (mmap'd file, OpenOptions).
func TestStreamEquivalenceArchive(t *testing.T) {
	log := synth.Log("eqa", 33, 200, 7)
	path := filepath.Join(t.TempDir(), "eqa.sta")
	if err := WriteArchive(path, log); err != nil {
		t.Fatal(err)
	}
	in, err := fromArchive(path, OpenOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := inMemoryArtifacts(in.EventLog())
	equivCheck(t, "archive", want, func(p, w int) Source {
		return mustStreamArchive(t, path, OpenOptions{Parallelism: p, Window: w})
	})
}

// TestStreamEquivalenceArchiveV2: the archive against the trace text it
// consolidates. A strace corpus is parsed once and archived; streaming
// the archive (zero-copy, at every parallelism/window/shard
// combination) must yield artifacts byte-identical to the in-memory
// pipeline over the parsed traces.
func TestStreamEquivalenceArchiveV2(t *testing.T) {
	el := drainStrace(t, straceFS(t, synth.Log("eqa", 33, 200, 7)))
	path := writeArchive(t, el)
	equivCheck(t, "sta2", inMemoryArtifacts(el), func(p, w int) Source {
		return mustStreamArchive(t, path, OpenOptions{Parallelism: p, Window: w})
	})
}

// TestStreamEquivalenceDXT: Darshan DXT case construction.
func TestStreamEquivalenceDXT(t *testing.T) {
	log := synth.Log("dxt", 29, 180, 11)
	var buf bytes.Buffer
	if _, err := synth.WriteDXT(&buf, log); err != nil {
		t.Fatal(err)
	}
	records, err := dxt.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	el := drainDXT(t, "dxt", records)
	want := inMemoryArtifacts(el)
	equivCheck(t, "dxt", want, func(p, w int) Source {
		return dxt.Stream("dxt", records, p, w)
	})
}

// TestStreamEquivalenceProfiles sweeps the full equivalence matrix over
// every adversarial generator profile and all three backends: hostile
// arguments, heavy-tail vocabularies, deep bursts and interleaved
// tenants must leave the streaming artifacts byte-identical to the
// in-memory pipeline at every parallelism/window/shard combination
// (and, for strace, both symbol-table scopings), exactly like the
// friendly synth shape.
func TestStreamEquivalenceProfiles(t *testing.T) {
	for _, p := range profiles.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			log := p.Generate("eqp", 9, 70, 20240924)

			// strace text backend.
			fsys := straceFS(t, log)
			equivCheckStrace(t, p.Name+"/strace", inMemoryArtifacts(drainStrace(t, fsys)), fsys)

			// STA archive backend: decoded through the persisted
			// file-level dictionary, and the artifacts must not be able
			// to tell.
			a2path := writeArchive(t, log)
			a2src := mustStreamArchive(t, a2path, OpenOptions{Parallelism: 1})
			a2el, err := source.Drain(a2src, false)
			a2src.Close()
			if err != nil {
				t.Fatal(err)
			}
			equivCheck(t, p.Name+"/sta2", inMemoryArtifacts(a2el), func(pp, w int) Source {
				return mustStreamArchive(t, a2path, OpenOptions{Parallelism: pp, Window: w})
			})

			// DXT backend (the dump only represents sized transfer calls;
			// equivalence is over the parsed-back records).
			var dbuf bytes.Buffer
			if _, err := synth.WriteDXT(&dbuf, log); err != nil {
				t.Fatal(err)
			}
			records, err := dxt.Parse(bytes.NewReader(dbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			del := drainDXT(t, "dxt", records)
			equivCheck(t, p.Name+"/dxt", inMemoryArtifacts(del), func(pp, w int) Source {
				return dxt.Stream("dxt", records, pp, w)
			})
		})
	}
}

// TestStreamEquivalenceFiltered: the streaming event filter must match
// EventLog.Filter through the whole pipeline, not just case counts.
func TestStreamEquivalenceFiltered(t *testing.T) {
	log := synth.Log("eqf", 17, 140, 5)
	keep := func(e trace.Event) bool { return strings.Contains(e.FP, "part0") }
	want := inMemoryArtifacts(log.Filter(keep))
	for _, shards := range equivParallelisms() {
		got := streamArtifacts(t, source.Filter(source.FromLog(log), keep), shards, false)
		if got != want {
			t.Errorf("filtered stream differs from in-memory at ashards=%d", shards)
		}
	}
}

// drainDXT materializes parsed DXT records as an event-log, one case per
// (hostname, rank), through the sequential stream.
func drainDXT(t *testing.T, cid string, records []dxt.Record) *trace.EventLog {
	t.Helper()
	src := dxt.Stream(cid, records, 1, 0)
	defer src.Close()
	el, err := source.Drain(src, false)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// writeArchive writes log to an STA file in a temp dir and returns its
// path.
func writeArchive(tb testing.TB, log *trace.EventLog) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "log.sta")
	if err := WriteArchive(path, log); err != nil {
		tb.Fatal(err)
	}
	return path
}

// mustStreamArchive opens the STA file at path as a source through the
// facade's entry point.
func mustStreamArchive(tb testing.TB, path string, opts OpenOptions) Source {
	tb.Helper()
	src, err := StreamArchive(path, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}
