package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/race"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// prefixSource delivers the first n cases of a log then EOF — the test
// stand-in for a process killed partway through its stream.
type prefixSource struct {
	cases []*trace.Case
	next  int
}

func (s *prefixSource) Next() (*trace.Case, error) {
	if s.next >= len(s.cases) {
		return nil, io.EOF
	}
	c := s.cases[s.next]
	s.next++
	return c, nil
}

func (s *prefixSource) Close() error { return nil }

func prefix(el *trace.EventLog, n int) source.Source {
	return &prefixSource{cases: el.Cases()[:n]}
}

// The checkpointed fold is AnalyzeStreamParallel with durability bolted
// on: whatever the epoch size and shard count, the artifacts are
// byte-identical to the plain fold, and the checkpoint file on disk is
// a readable snapshot of the complete run.
func TestCheckpointedMatchesPlain(t *testing.T) {
	el := synth.Log("ckpt", 37, 60, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	plain, err := AnalyzeStreamParallel(source.FromLog(el), m, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	want := streamArtifacts(plain)
	for _, every := range []int{0, 1, 7, 1000} {
		for _, shards := range []int{1, 4} {
			dir := t.TempDir()
			res, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, shards, true,
				CheckpointOptions{Dir: dir, Every: every})
			if err != nil {
				t.Fatalf("every=%d shards=%d: %v", every, shards, err)
			}
			if got := streamArtifacts(res); got != want {
				t.Errorf("every=%d shards=%d: artifacts differ from plain fold", every, shards)
			}
			s, err := snapshot.ReadFile(filepath.Join(dir, DefaultCheckpointName), m)
			if err != nil {
				t.Fatalf("every=%d shards=%d: checkpoint unreadable: %v", every, shards, err)
			}
			if s.Cases != el.NumCases() || len(s.Seen) != el.NumCases() {
				t.Errorf("every=%d shards=%d: checkpoint covers %d cases / %d ids, want %d",
					every, shards, s.Cases, len(s.Seen), el.NumCases())
			}
		}
	}
}

// Kill-and-resume reproduces the uninterrupted run exactly: a fold
// killed after k cases and resumed over the full stream yields the same
// artifacts and the same final checkpoint bytes, at aligned and
// unaligned kill points alike — the merge laws are exact under any
// contiguous partition of the stream.
func TestCheckpointKillAndResume(t *testing.T) {
	el := synth.Log("ckpt", 41, 55, 7)
	m := pm.CallTopDirs{Depth: 2}
	const every = 8

	ref := t.TempDir()
	full, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, 4, true,
		CheckpointOptions{Dir: ref, Every: every})
	if err != nil {
		t.Fatal(err)
	}
	want := streamArtifacts(full)
	wantBytes, err := os.ReadFile(filepath.Join(ref, DefaultCheckpointName))
	if err != nil {
		t.Fatal(err)
	}

	for _, kill := range []int{8, 16, 40, 13, 1} { // boundary-aligned and not
		dir := t.TempDir()
		opts := CheckpointOptions{Dir: dir, Every: every}
		if _, err := AnalyzeStreamCheckpointed(prefix(el, kill), m, 4, true, opts); err != nil {
			t.Fatalf("kill=%d partial run: %v", kill, err)
		}
		opts.Resume = true
		res, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, 4, true, opts)
		if err != nil {
			t.Fatalf("kill=%d resume: %v", kill, err)
		}
		if got := streamArtifacts(res); got != want {
			t.Errorf("kill=%d: resumed artifacts differ from uninterrupted run", kill)
		}
		gotBytes, err := os.ReadFile(filepath.Join(dir, DefaultCheckpointName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("kill=%d: final checkpoint bytes differ from uninterrupted run", kill)
		}
	}
}

// Resuming a checkpoint that already covers the whole stream folds
// nothing and reports the complete result unchanged.
func TestCheckpointResumeCompleteIsNoOp(t *testing.T) {
	el := synth.Log("ckpt", 12, 30, 3)
	m := pm.CallTopDirs{Depth: 2}
	dir := t.TempDir()
	opts := CheckpointOptions{Dir: dir, Every: 5}
	first, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, 2, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, DefaultCheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	again, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, 2, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if streamArtifacts(again) != streamArtifacts(first) {
		t.Error("no-op resume changed the artifacts")
	}
	after, err := os.ReadFile(filepath.Join(dir, DefaultCheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("no-op resume changed the checkpoint bytes")
	}
}

// An empty stream still produces a checkpoint and the same result shape
// as the plain fold (endpoint symbols included).
func TestCheckpointEmptyStream(t *testing.T) {
	el := synth.Log("ckpt", 5, 10, 1)
	m := pm.CallTopDirs{Depth: 2}
	plain, err := AnalyzeStreamParallel(prefix(el, 0), m, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := AnalyzeStreamCheckpointed(prefix(el, 0), m, 2, true,
		CheckpointOptions{Dir: dir, Every: 4})
	if err != nil {
		t.Fatal(err)
	}
	if streamArtifacts(res) != streamArtifacts(plain) {
		t.Error("empty-stream artifacts differ from plain fold")
	}
	if res.Symbols != plain.Symbols {
		t.Errorf("Symbols = %d, want %d", res.Symbols, plain.Symbols)
	}
	if _, err := os.Stat(filepath.Join(dir, DefaultCheckpointName)); err != nil {
		t.Errorf("empty-stream run wrote no checkpoint: %v", err)
	}
}

// An epoch that folds nothing leaves the checkpoint on disk current, so
// it is not rewritten: 16 cases at Every 8 write twice (the third, empty
// epoch is skipped), 17 cases three times. OnEpoch still reports every
// epoch, and the final file holds the one-shot snapshot's bytes.
func TestCheckpointSkipsEmptyEpoch(t *testing.T) {
	el := synth.Log("ckpt", 17, 20, 9)
	m := pm.CallTopDirs{Depth: 2}
	for _, tc := range []struct{ cases, writes int }{{16, 2}, {17, 3}} {
		dir := t.TempDir()
		path := filepath.Join(dir, DefaultCheckpointName)
		// Every write renames a new file into place. The file seen last is
		// held open, so the next write cannot reuse its inode and SameFile
		// tells a write from a skipped one.
		var held *os.File
		epochs, writes := 0, 0
		onEpoch := func(int) {
			epochs++
			fi, err := os.Stat(path)
			if err != nil {
				t.Error(err)
				return
			}
			if held != nil {
				hfi, err := held.Stat()
				if err != nil {
					t.Error(err)
					return
				}
				if os.SameFile(hfi, fi) {
					return
				}
				held.Close()
			}
			writes++
			if held, err = os.Open(path); err != nil {
				t.Error(err)
			}
		}
		_, err := AnalyzeStreamCheckpointed(prefix(el, tc.cases), m, 2, true,
			CheckpointOptions{Dir: dir, Every: 8, OnEpoch: onEpoch})
		if held != nil {
			held.Close()
		}
		if err != nil {
			t.Fatalf("%d cases: %v", tc.cases, err)
		}
		if epochs != 3 || writes != tc.writes {
			t.Errorf("%d cases: %d epochs, %d writes; want 3 epochs, %d writes", tc.cases, epochs, writes, tc.writes)
		}
		one, err := AnalyzeStreamSnapshot(prefix(el, tc.cases), m, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, snapshot.Encode(one)) {
			t.Errorf("%d cases: final checkpoint differs from the one-shot snapshot", tc.cases)
		}
	}
}

// With joined errors the fold goes on past an epoch whose partial is
// dropped for a failed case — even the first epoch of a fresh run, with
// nothing on disk yet: the run reports the error and the checkpoint
// holds the good epochs, so a resume re-folds only the dropped one.
func TestCheckpointJoinErrorsDropsEpoch(t *testing.T) {
	el := synth.Log("ckpt", 12, 20, 3)
	m := pm.CallTopDirs{Depth: 2}
	dir := t.TempDir()
	// Failed cases take no epoch budget: epoch 1 is cases 0-4 with case
	// 1 failing, epoch 2 cases 5-8, epoch 3 cases 9-11.
	src := &errSource{cases: el.Cases(), fail: map[int]bool{1: true}}
	var covered []int
	_, err := AnalyzeStreamCheckpointed(src, m, 2, true, CheckpointOptions{
		Dir: dir, Every: 4, OnEpoch: func(n int) { covered = append(covered, n) },
	})
	if err == nil || !strings.Contains(err.Error(), "case 1 unreadable") {
		t.Fatalf("err = %v, want the joined case error", err)
	}
	if want := []int{4, 7}; !reflect.DeepEqual(covered, want) {
		t.Errorf("OnEpoch saw %v cases, want %v", covered, want)
	}
	s, err := snapshot.ReadFile(filepath.Join(dir, DefaultCheckpointName), m)
	if err != nil {
		t.Fatal(err)
	}
	want := el.Cases()[5:]
	if len(s.Seen) != len(want) {
		t.Fatalf("checkpoint covers %d cases, want %d", len(s.Seen), len(want))
	}
	for i, c := range want {
		if s.Seen[i] != c.ID {
			t.Errorf("seen[%d] = %s, want %s", i, s.Seen[i], c.ID)
		}
	}
}

// TestCheckpointEpochMergeFlat is the checkpoint loop's cost gate:
// folding an epoch into the accumulated state must cost the epoch, not
// the history. Merging one 8-case epoch into a 120-case accumulator may
// allocate at most 1.5x what merging it into an 8-case one does; a merge
// that rebuilds the accumulated state allocates in proportion to it.
// Allocation counts are deterministic, unlike wall clock. Skipped under
// -race (instrumented allocator).
func TestCheckpointEpochMergeFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate skipped under -race")
	}
	el := synth.Log("ckpt", 128, 40, 13)
	m := pm.CallTopDirs{Depth: 2}
	dir := t.TempDir()
	write := func(lo, hi int) string {
		s, err := AnalyzeStreamSnapshot(&prefixSource{cases: el.Cases()[lo:hi]}, m, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%d-%d.sts", lo, hi))
		if err := snapshot.WriteFile(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	decode := func(path string) *snapshot.Snapshot {
		s, err := snapshot.ReadFile(path, m)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	epoch := write(120, 128)
	mergeAllocs := func(history string) float64 {
		// Merge consumes its target, so every run (and AllocsPerRun's
		// warm-up) gets its own decoded pair.
		const runs = 5
		accs := make([]*snapshot.Snapshot, runs+1)
		eps := make([]*snapshot.Snapshot, runs+1)
		for i := range accs {
			accs[i], eps[i] = decode(history), decode(epoch)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			snapshot.Merge(accs[i], eps[i])
			i++
		})
	}
	small, large := mergeAllocs(write(0, 8)), mergeAllocs(write(0, 120))
	t.Logf("allocs merging an 8-case epoch: %.0f into 8 cases, %.0f into 120", small, large)
	if large > 1.5*small {
		t.Errorf("merge into a 120-case history allocates %.0f, over 1.5x the %.0f of an 8-case one", large, small)
	}
}

func TestCheckpointRequiresDir(t *testing.T) {
	el := synth.Log("ckpt", 2, 10, 1)
	if _, err := AnalyzeStreamCheckpointed(source.FromLog(el), pm.CallTopDirs{Depth: 2}, 1, true,
		CheckpointOptions{}); err == nil {
		t.Error("empty Dir accepted")
	}
}

// Snapshot files from independent fold processes over a disjoint
// partition merge into exactly the single-process result.
func TestMergeSnapshotFiles(t *testing.T) {
	el := synth.Log("ckpt", 30, 45, 11)
	m := pm.CallTopDirs{Depth: 2}
	plain, err := AnalyzeStreamParallel(source.FromLog(el), m, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	bounds := []int{0, 11, 19, 30}
	for i := 0; i+1 < len(bounds); i++ {
		src := &prefixSource{cases: el.Cases()[bounds[i]:bounds[i+1]]}
		s, err := AnalyzeStreamSnapshot(src, m, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "part"+string(rune('0'+i))+".sts")
		if err := snapshot.WriteFile(p, s); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	merged, err := MergeSnapshotFiles(m, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if streamArtifacts(merged) != streamArtifacts(plain) {
		t.Error("merged shard snapshots differ from the single-process fold")
	}
	if _, err := MergeSnapshotFiles(m); err == nil {
		t.Error("MergeSnapshotFiles with no paths accepted")
	}
}
