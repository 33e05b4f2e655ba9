package core

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/source"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// viewArtifacts renders what the view publishes, or "" when it
// publishes nothing.
func viewArtifacts(v *DurableView) (string, int) {
	var out string
	gen := -1
	v.Read(func(res *StreamResult, g int) {
		out = streamArtifacts(res) + res.Behavior.RenderText()
		gen = g
	})
	return out, gen
}

// fileArtifacts renders the checkpoint file as MergeSnapshotFiles
// finalizes it.
func fileArtifacts(t *testing.T, path string, m pm.Mapping) string {
	t.Helper()
	res, err := MergeSnapshotFiles(m, path)
	if err != nil {
		t.Fatal(err)
	}
	return streamArtifacts(res) + res.Behavior.RenderText()
}

// After every epoch the view publishes exactly what the checkpoint file
// holds, at the generation the file covers; finalizing the published
// state between epochs leaves the fold's final artifacts unchanged.
func TestCheckpointViewTracksFile(t *testing.T) {
	el := synth.Log("view", 30, 40, 5)
	m := pm.CallTopDirs{Depth: 2}
	plain, err := AnalyzeStream(source.FromLog(el), m, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, DefaultCheckpointName)
	view := &DurableView{}
	if _, ok := view.Generation(); ok {
		t.Fatal("empty view reports a generation")
	}
	if got, _ := viewArtifacts(view); got != "" {
		t.Fatal("empty view publishes a state")
	}
	var gens []int
	res, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, 2, true, CheckpointOptions{
		Dir: dir, Every: 7, View: view,
		OnEpoch: func(cases int) {
			got, gen := viewArtifacts(view)
			if g, ok := view.Generation(); !ok || g != gen || gen != cases {
				t.Errorf("epoch at %d cases: view generation %d (ok=%v), read %d", cases, g, ok, gen)
			}
			if want := fileArtifacts(t, path, m); got != want {
				t.Errorf("epoch at %d cases: view differs from the checkpoint file", cases)
			}
			gens = append(gens, gen)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamArtifacts(res), streamArtifacts(plain); got != want {
		t.Error("final artifacts differ from the plain fold after the view was read between epochs")
	}
	if want := []int{7, 14, 21, 28, 30}; !slices.Equal(gens, want) {
		t.Errorf("generations %v, want %v", gens, want)
	}
}

// firstNextSource runs check before handing out its first case.
type firstNextSource struct {
	source.Source
	check func()
	done  bool
}

func (s *firstNextSource) Next() (*trace.Case, error) {
	if !s.done {
		s.done = true
		s.check()
	}
	return s.Source.Next()
}

// A resumed fold publishes the checkpoint it loaded before it reads the
// first case of the stream.
func TestCheckpointViewResumePublishesFirst(t *testing.T) {
	el := synth.Log("view", 20, 30, 9)
	m := pm.CallTopDirs{Depth: 2}
	dir := t.TempDir()
	path := filepath.Join(dir, DefaultCheckpointName)
	if _, err := AnalyzeStreamCheckpointed(prefix(el, 12), m, 2, true, CheckpointOptions{Dir: dir, Every: 6}); err != nil {
		t.Fatal(err)
	}
	want := fileArtifacts(t, path, m)
	view := &DurableView{}
	checked := false
	src := &firstNextSource{Source: source.FromLog(el), check: func() {
		checked = true
		got, gen := viewArtifacts(view)
		if gen != 12 || got != want {
			t.Errorf("before the first case: view at generation %d, equal to the loaded checkpoint: %v", gen, got == want)
		}
	}}
	if _, err := AnalyzeStreamCheckpointed(src, m, 2, true, CheckpointOptions{Dir: dir, Every: 6, Resume: true, View: view}); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the resumed fold never read its source")
	}
	if gen, ok := view.Generation(); !ok || gen != 20 {
		t.Errorf("final generation %d (ok=%v), want 20", gen, ok)
	}
}

// A failed checkpoint write leaves the view publishing nothing: the
// merged state it holds never reached the disk.
func TestCheckpointViewStaleOnWriteFailure(t *testing.T) {
	el := synth.Log("view", 12, 30, 11)
	m := pm.CallTopDirs{Depth: 2}
	dir := t.TempDir()
	path := filepath.Join(dir, DefaultCheckpointName)
	view := &DurableView{}
	_, err := AnalyzeStreamCheckpointed(source.FromLog(el), m, 2, true, CheckpointOptions{
		Dir: dir, Every: 5, View: view,
		OnEpoch: func(cases int) {
			if gen, ok := view.Generation(); !ok || gen != cases {
				t.Errorf("after the write of %d cases: generation %d (ok=%v)", cases, gen, ok)
			}
			// A non-empty directory in the checkpoint's place makes the
			// next write's rename fail.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
				t.Fatal(err)
			}
		},
	})
	if err == nil {
		t.Fatal("the fold survived a failed checkpoint write")
	}
	if gen, ok := view.Generation(); ok {
		t.Errorf("after a failed write the view still publishes generation %d", gen)
	}
	if got, _ := viewArtifacts(view); got != "" {
		t.Error("after a failed write the view still publishes a state")
	}
}
