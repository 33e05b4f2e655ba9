package stinspector

// Durable-snapshot equivalence properties: the acceptance bar of the
// persistence layer. An N-process sharded fold — each process folding a
// disjoint slice of the corpus and writing an STS snapshot — must merge
// (MergeSnapshots) into artifacts byte-identical to the in-memory
// pipeline over the whole corpus, for every generator profile, backend,
// analysis-shard count and symbol-table scoping. And a checkpointed
// fold killed partway and resumed must reproduce both the artifacts and
// the final checkpoint bytes of an uninterrupted run.

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/fstest"

	"stinspector/internal/archive"
	"stinspector/internal/dxt"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// snapshotMergeCheck folds three contiguous slices of the corpus into
// separate snapshot files through open's backend and asserts the merged
// artifacts equal want, across the shard × scoped matrix.
func snapshotMergeCheck(t *testing.T, kind string, el *EventLog, want string, open func(syms *SymbolTable) Source) {
	t.Helper()
	cases := el.Cases()
	n := len(cases)
	bounds := []int{0, n / 3, 2 * n / 3, n}
	m := CallTopDirs{Depth: 2}
	for _, shards := range []int{1, 4} {
		for _, scoped := range []bool{false, true} {
			dir := t.TempDir()
			var paths []string
			for i := 0; i+1 < len(bounds); i++ {
				keep := make(map[CaseID]bool)
				for _, c := range cases[bounds[i]:bounds[i+1]] {
					keep[c.ID] = true
				}
				var syms *SymbolTable
				if scoped {
					syms = NewSymbolTable()
				}
				src := open(syms)
				part := FilterStreamCases(src, func(c *Case) bool { return keep[c.ID] })
				path := filepath.Join(dir, "part"+strconv.Itoa(i)+".sts")
				err := WriteSnapshot(path, part, m, shards, true)
				src.Close()
				if err != nil {
					t.Fatalf("%s shards=%d scoped=%v part %d: %v", kind, shards, scoped, i, err)
				}
				paths = append(paths, path)
			}
			res, err := MergeSnapshots(m, paths...)
			if err != nil {
				t.Fatalf("%s shards=%d scoped=%v merge: %v", kind, shards, scoped, err)
			}
			if got := artifacts(res.ActivityLog, res.DFG, res.Stats, res.Behavior); got != want {
				t.Errorf("%s: merged snapshot artifacts differ from in-memory at shards=%d scoped=%v.\n--- merged ---\n%s\n--- in-memory ---\n%s",
					kind, shards, scoped, got, want)
			}
		}
	}
}

// TestSnapshotMergeEquivalence sweeps the sharded-fold-and-merge
// property over every generator profile and all three backends.
func TestSnapshotMergeEquivalence(t *testing.T) {
	for _, p := range profiles.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			log := p.Generate("seq", 9, 70, 20240924)

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
			want := inMemoryArtifacts(el)
			snapshotMergeCheck(t, p.Name+"/strace", el, want, func(syms *SymbolTable) Source {
				src, err := strace.StreamFS(fsys, ".", strace.Options{Strict: true, Parallelism: 2, Window: 3, Syms: syms})
				if err != nil {
					t.Fatal(err)
				}
				return src
			})

			// STA archive backend.
			var abuf bytes.Buffer
			if err := archive.WriteV2(&abuf, log); err != nil {
				t.Fatal(err)
			}
			r, err := archive.NewReader(bytes.NewReader(abuf.Bytes()), int64(abuf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			snapshotMergeCheck(t, p.Name+"/archive", el, want, func(syms *SymbolTable) Source {
				r.SetSyms(syms)
				return r.Stream(2, 3)
			})

			// DXT backend.
			var dbuf bytes.Buffer
			if _, err := dxt.Write(&dbuf, log); err != nil {
				t.Fatal(err)
			}
			records, err := dxt.Parse(bytes.NewReader(dbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			del, err := dxt.ToEventLogParallel("seq", records, 1)
			if err != nil {
				t.Fatal(err)
			}
			dwant := inMemoryArtifacts(del)
			snapshotMergeCheck(t, p.Name+"/dxt", del, dwant, func(syms *SymbolTable) Source {
				recs := records
				if syms != nil {
					var err error
					recs, err = dxt.ParseSyms(bytes.NewReader(dbuf.Bytes()), syms)
					if err != nil {
						t.Fatal(err)
					}
				}
				return dxt.Stream("seq", recs, 2, 3)
			})
		})
	}
}

// TestSnapshotResumeEquivalence: a checkpointed fold killed after a
// prefix of the stream and resumed over the full stream reproduces the
// uninterrupted run exactly — same artifacts, same final checkpoint
// bytes — at several epoch sizes and kill points.
func TestSnapshotResumeEquivalence(t *testing.T) {
	log := synth.Log("seqr", 23, 90, 20240924)
	m := CallTopDirs{Depth: 2}
	want := inMemoryArtifacts(log)
	ids := make([]trace.CaseID, 0, len(log.Cases()))
	for _, c := range log.Cases() {
		ids = append(ids, c.ID)
	}

	for _, every := range []int{0, 1, 5} {
		ref := t.TempDir()
		full, err := AnalyzeStreamCheckpointed(StreamEventLog(log), m, 4, true,
			CheckpointOptions{Dir: ref, Every: every})
		if err != nil {
			t.Fatal(err)
		}
		if got := artifacts(full.ActivityLog, full.DFG, full.Stats, full.Behavior); got != want {
			t.Fatalf("every=%d: checkpointed artifacts differ from in-memory", every)
		}
		refBytes, err := os.ReadFile(filepath.Join(ref, "checkpoint.sts"))
		if err != nil {
			t.Fatal(err)
		}

		for _, kill := range []int{5, 16} {
			dir := t.TempDir()
			opts := CheckpointOptions{Dir: dir, Every: every}
			seen := make(map[trace.CaseID]bool)
			for _, id := range ids[:kill] {
				seen[id] = true
			}
			prefix := FilterStreamCases(StreamEventLog(log), func(c *Case) bool { return seen[c.ID] })
			if _, err := AnalyzeStreamCheckpointed(prefix, m, 4, true, opts); err != nil {
				t.Fatalf("every=%d kill=%d partial: %v", every, kill, err)
			}
			opts.Resume = true
			res, err := AnalyzeStreamCheckpointed(StreamEventLog(log), m, 4, true, opts)
			if err != nil {
				t.Fatalf("every=%d kill=%d resume: %v", every, kill, err)
			}
			if got := artifacts(res.ActivityLog, res.DFG, res.Stats, res.Behavior); got != want {
				t.Errorf("every=%d kill=%d: resumed artifacts differ from in-memory", every, kill)
			}
			gotBytes, err := os.ReadFile(filepath.Join(dir, "checkpoint.sts"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, refBytes) {
				t.Errorf("every=%d kill=%d: final checkpoint bytes differ from uninterrupted run", every, kill)
			}
		}
	}
}
