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
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"

	"stinspector/internal/archive"
	"stinspector/internal/dxt"
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
// combination, each once over the process-wide symbol table and once
// over a scoped table created fresh for that run (syms non-nil). A
// scoped pass must be byte-identical to the Default-table pass:
// symbol tables only decide string retention, never content.
func equivCheck(t *testing.T, kind, want string, open func(parallelism, window int, syms *SymbolTable) Source) {
	t.Helper()
	for _, scoped := range []bool{false, true} {
		for _, p := range equivParallelisms() {
			for _, w := range []int{0, 1, 3} {
				for _, shards := range equivParallelisms() {
					var syms *SymbolTable
					if scoped {
						syms = NewSymbolTable()
					}
					got := streamArtifacts(t, open(p, w, syms), shards, true)
					if got != want {
						t.Errorf("%s: streaming artifacts differ from in-memory at scoped=%v parallelism=%d window=%d ashards=%d.\n--- streaming ---\n%s\n--- in-memory ---\n%s",
							kind, scoped, p, w, shards, got, want)
					}
				}
			}
		}
	}
}

// TestStreamEquivalenceStraceDir: trace-directory ingestion.
func TestStreamEquivalenceStraceDir(t *testing.T) {
	log := synth.Log("eq", 41, 160, 20240924)
	fsys := fstest.MapFS{}
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
	}
	el, err := strace.ReadFS(fsys, ".", strace.Options{Strict: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := inMemoryArtifacts(el)
	equivCheck(t, "strace", want, func(p, w int, syms *SymbolTable) Source {
		src, err := strace.StreamFS(fsys, ".", strace.Options{Strict: true, Parallelism: p, Window: w, Syms: syms})
		if err != nil {
			t.Fatal(err)
		}
		return src
	})
}

// TestStreamEquivalenceArchive: STA section decode through the
// facade's path-level entry points (mmap'd file, OpenOptions).
func TestStreamEquivalenceArchive(t *testing.T) {
	log := synth.Log("eqa", 33, 200, 7)
	path := filepath.Join(t.TempDir(), "eqa.sta")
	if err := WriteArchive(path, log); err != nil {
		t.Fatal(err)
	}
	in, err := FromArchive(path, OpenOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := inMemoryArtifacts(in.EventLog())
	equivCheck(t, "archive", want, func(p, w int, syms *SymbolTable) Source {
		src, err := StreamArchive(path, OpenOptions{Parallelism: p, Window: w, Syms: syms})
		if err != nil {
			t.Fatal(err)
		}
		return src
	})
}

// TestStreamEquivalenceArchiveV2: the archive against the trace text it
// consolidates. A strace corpus is parsed once and archived; streaming
// the archive (zero-copy, at every parallelism/window/shard/scoping
// combination) must yield artifacts byte-identical to the in-memory
// pipeline over the parsed traces.
func TestStreamEquivalenceArchiveV2(t *testing.T) {
	log := synth.Log("eqa", 33, 200, 7)
	fsys := fstest.MapFS{}
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
	}
	el, err := strace.ReadFS(fsys, ".", strace.Options{Strict: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := inMemoryArtifacts(el)
	var buf bytes.Buffer
	if err := archive.WriteV2(&buf, el); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	equivCheck(t, "sta2", want, func(p, w int, syms *SymbolTable) Source {
		// Runs are sequential, so rebinding the shared reader's decode
		// table per run is safe; nil restores Default.
		r.SetSyms(syms)
		return r.Stream(p, w)
	})
}

// TestStreamEquivalenceDXT: Darshan DXT case construction.
func TestStreamEquivalenceDXT(t *testing.T) {
	log := synth.Log("dxt", 29, 180, 11)
	var buf bytes.Buffer
	if _, err := dxt.Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	records, err := dxt.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	el, err := dxt.ToEventLogParallel("dxt", records, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := inMemoryArtifacts(el)
	equivCheck(t, "dxt", want, func(p, w int, syms *SymbolTable) Source {
		recs := records
		if syms != nil {
			// DXT interning happens at Parse time: a scoped run
			// re-parses the dump through its own table.
			var err error
			recs, err = dxt.ParseSyms(bytes.NewReader(buf.Bytes()), syms)
			if err != nil {
				t.Fatal(err)
			}
		}
		return dxt.Stream("dxt", recs, p, w)
	})
}

// TestStreamEquivalenceProfiles sweeps the full equivalence matrix over
// every adversarial generator profile and all three backends: hostile
// arguments, heavy-tail vocabularies, deep bursts and interleaved
// tenants must leave the streaming artifacts byte-identical to the
// in-memory pipeline at every parallelism/window/shard/scoping
// combination, exactly like the friendly synth shape.
func TestStreamEquivalenceProfiles(t *testing.T) {
	for _, p := range profiles.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			log := p.Generate("eqp", 9, 70, 20240924)

			// strace text backend.
			fsys := fstest.MapFS{}
			for _, c := range log.Cases() {
				var buf bytes.Buffer
				if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
					t.Fatal(err)
				}
				fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
			}
			el, err := strace.ReadFS(fsys, ".", strace.Options{Strict: true, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			equivCheck(t, p.Name+"/strace", inMemoryArtifacts(el), func(pp, w int, syms *SymbolTable) Source {
				src, err := strace.StreamFS(fsys, ".", strace.Options{Strict: true, Parallelism: pp, Window: w, Syms: syms})
				if err != nil {
					t.Fatal(err)
				}
				return src
			})

			// STA archive backend: decoded through the persisted
			// file-level dictionary, and the artifacts must not be able
			// to tell.
			var a2buf bytes.Buffer
			if err := archive.WriteV2(&a2buf, log); err != nil {
				t.Fatal(err)
			}
			r2, err := archive.NewReaderBytes(a2buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			a2src := r2.Stream(1, 0)
			a2el, err := source.Drain(a2src, false)
			a2src.Close()
			if err != nil {
				t.Fatal(err)
			}
			equivCheck(t, p.Name+"/sta2", inMemoryArtifacts(a2el), func(pp, w int, syms *SymbolTable) Source {
				r2.SetSyms(syms)
				return r2.Stream(pp, w)
			})

			// DXT backend (the dump only represents sized transfer calls;
			// equivalence is over the parsed-back records).
			var dbuf bytes.Buffer
			if _, err := dxt.Write(&dbuf, log); err != nil {
				t.Fatal(err)
			}
			records, err := dxt.Parse(bytes.NewReader(dbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			del, err := dxt.ToEventLogParallel("dxt", records, 1)
			if err != nil {
				t.Fatal(err)
			}
			equivCheck(t, p.Name+"/dxt", inMemoryArtifacts(del), func(pp, w int, syms *SymbolTable) Source {
				recs := records
				if syms != nil {
					var err error
					recs, err = dxt.ParseSyms(bytes.NewReader(dbuf.Bytes()), syms)
					if err != nil {
						t.Fatal(err)
					}
				}
				return dxt.Stream("dxt", recs, pp, w)
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
