package stinspector

// Durable-snapshot equivalence properties: the acceptance bar of the
// persistence layer. An N-process sharded fold — each process folding a
// disjoint slice of the corpus and writing an STS snapshot — must merge
// (MergeSnapshots) into artifacts byte-identical to the in-memory
// pipeline over the whole corpus, for every generator profile, backend,
// analysis-shard count and, for strace, symbol-table scoping. And a
// checkpointed fold killed partway and resumed must reproduce both the
// artifacts and the final checkpoint bytes of an uninterrupted run.
// Snapshot bytes are a function of the set of folded cases alone:
// arrival order, shard count, backend and epoch history never show in
// them.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"stinspector/internal/core"
	"stinspector/internal/dxt"
	"stinspector/internal/intern"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// snapshotBytes encodes the snapshot of a fold over src at the given
// shard count.
func snapshotBytes(t *testing.T, src Source, m Mapping, shards int) []byte {
	t.Helper()
	s, err := core.AnalyzeStreamSnapshot(src, m, shards, true)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Encode(s)
}

// snapshotMergeCheck folds three contiguous slices of the corpus into
// separate snapshot files through open's backend and asserts, at 1 and
// 4 shards, that the merged artifacts equal want and the merged
// snapshot's bytes equal a one-shot snapshot of el.
func snapshotMergeCheck(t *testing.T, kind string, el *EventLog, want string, open func() Source) {
	t.Helper()
	cases := el.Cases()
	n := len(cases)
	bounds := []int{0, n / 3, 2 * n / 3, n}
	m := CallTopDirs{Depth: 2}
	wantBytes := snapshotBytes(t, source.FromLog(el), m, 1)
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		var paths []string
		for i := 0; i+1 < len(bounds); i++ {
			keep := make(map[CaseID]bool)
			for _, c := range cases[bounds[i]:bounds[i+1]] {
				keep[c.ID] = true
			}
			src := open()
			part := source.FilterCases(src, func(c *Case) bool { return keep[c.ID] })
			path := filepath.Join(dir, "part"+strconv.Itoa(i)+".sts")
			s, err := core.AnalyzeStreamSnapshot(part, m, shards, true)
			if err == nil {
				err = snapshot.WriteFile(path, s)
			}
			src.Close()
			if err != nil {
				t.Fatalf("%s shards=%d part %d: %v", kind, shards, i, err)
			}
			paths = append(paths, path)
		}
		res, err := MergeSnapshots(m, paths...)
		if err != nil {
			t.Fatalf("%s shards=%d merge: %v", kind, shards, err)
		}
		if got := artifacts(res.ActivityLog, res.DFG, res.Stats, res.Behavior); got != want {
			t.Errorf("%s: merged snapshot artifacts differ from in-memory at shards=%d.\n--- merged ---\n%s\n--- in-memory ---\n%s",
				kind, shards, got, want)
		}
		snaps := make([]*snapshot.Snapshot, len(paths))
		for i, p := range paths {
			if snaps[i], err = snapshot.ReadFile(p, m); err != nil {
				t.Fatal(err)
			}
		}
		if got := snapshot.Encode(snapshot.Merge(snaps...)); !bytes.Equal(got, wantBytes) {
			t.Errorf("%s: merged snapshot bytes differ from a one-shot snapshot at shards=%d (%d vs %d bytes)",
				kind, shards, len(got), len(wantBytes))
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

			// strace text backend, over the process-wide string table
			// and over a scoped table per source.
			fsys := straceFS(t, log)
			el := drainStrace(t, fsys)
			want := inMemoryArtifacts(el)
			for _, scoped := range []bool{false, true} {
				snapshotMergeCheck(t, fmt.Sprintf("%s/strace scoped=%v", p.Name, scoped), el, want, func() Source {
					opts := strace.Options{Strict: true, Parallelism: 2, Window: 3}
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

			// STA archive backend.
			path := writeArchive(t, log)
			snapshotMergeCheck(t, p.Name+"/archive", el, want, func() Source {
				return mustStreamArchive(t, path, OpenOptions{Parallelism: 2, Window: 3})
			})

			// DXT backend.
			var dbuf bytes.Buffer
			if _, err := synth.WriteDXT(&dbuf, log); err != nil {
				t.Fatal(err)
			}
			records, err := dxt.Parse(bytes.NewReader(dbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			del := drainDXT(t, "seq", records)
			dwant := inMemoryArtifacts(del)
			snapshotMergeCheck(t, p.Name+"/dxt", del, dwant, func() Source {
				return dxt.Stream("seq", records, 2, 3)
			})
		})
	}
}

// TestSnapshotArrivalOrderCanonical: a snapshot's bytes are a pure
// function of the set of folded cases. For every generator profile,
// folding the cases in CaseID order and in a seeded shuffled order, at
// 1, 2 and 4 shards, encodes to the same bytes; so does a checkpointed
// fold of the shuffled stream in epochs of 5 cases.
func TestSnapshotArrivalOrderCanonical(t *testing.T) {
	m := CallTopDirs{Depth: 2}
	for _, p := range profiles.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			el := p.Generate("arr", 24, 60, 20240924)
			want := snapshotBytes(t, source.FromLog(el), m, 1)
			shuffled := append([]*Case(nil), el.Cases()...)
			rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for _, shards := range []int{1, 2, 4} {
				if got := snapshotBytes(t, source.FromLog(el), m, shards); !bytes.Equal(got, want) {
					t.Errorf("CaseID order, shards=%d: snapshot bytes differ from one shard", shards)
				}
				if got := snapshotBytes(t, source.FromCases(shuffled...), m, shards); !bytes.Equal(got, want) {
					t.Errorf("shuffled order, shards=%d: snapshot bytes differ from CaseID order", shards)
				}
			}
			dir := t.TempDir()
			if _, err := AnalyzeStreamCheckpointed(source.FromCases(shuffled...), m, 2, true,
				CheckpointOptions{Dir: dir, Every: 5}); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "checkpoint.sts"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("checkpointed fold of the shuffled stream: checkpoint bytes differ from a one-shot snapshot")
			}
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
		full, err := AnalyzeStreamCheckpointed(source.FromLog(log), m, 4, true,
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
			prefix := source.FilterCases(source.FromLog(log), func(c *Case) bool { return seen[c.ID] })
			if _, err := AnalyzeStreamCheckpointed(prefix, m, 4, true, opts); err != nil {
				t.Fatalf("every=%d kill=%d partial: %v", every, kill, err)
			}
			opts.Resume = true
			res, err := AnalyzeStreamCheckpointed(source.FromLog(log), m, 4, true, opts)
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
