package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stinspector/internal/core"
	"stinspector/internal/lssim"
	"stinspector/internal/render"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// golden compares got against the named golden file, rewriting it under
// -update. Golden files pin the exact rendered artifacts: any change to
// the DFG construction, statistics formatting or DOT emission shows up
// as a reviewable diff.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s differs from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFig3dDOT(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	in := core.FromEventLog(cx)
	full, part := in.PartitionByCID("a")
	dot := render.RenderDOT(full, in.Stats(), render.PartitionColoring{Partition: part})
	golden(t, "fig3d.dot", dot)
}

func TestGoldenFig3dText(t *testing.T) {
	_, _, cx := lssim.Both(lssim.Config{})
	in := core.FromEventLog(cx)
	full, part := in.PartitionByCID("a")
	golden(t, "fig3d.txt", render.RenderText(full, in.Stats(), part))
}

func TestGoldenFig5Timeline(t *testing.T) {
	_, cb, _ := lssim.Both(lssim.Config{})
	in := core.FromEventLog(cb)
	golden(t, "fig5.txt", render.RenderTimeline(in.Timeline("read:/usr/lib")))
}

func TestGoldenFig2Strace(t *testing.T) {
	r, err := fig2()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig2.txt", r.Text)
}

// The golden artifacts must themselves contain the paper's headline
// values, guarding against a stale golden file being silently accepted.
func TestGoldenFilesCarryPaperValues(t *testing.T) {
	if *updateGolden {
		t.Skip("updating")
	}
	b, err := os.ReadFile(filepath.Join("testdata", "fig3d.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Load:0.22 (14.98 KB)", "Load:0.27 (2.87 KB)", "[red]", "DR: 2x"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("golden fig3d.txt missing %q", want)
		}
	}
}
