package experiments

import (
	"strings"
	"testing"
)

// checkReport fails the test for every failed check of the report.
func checkReport(t *testing.T, r *Report) {
	t.Helper()
	for _, c := range r.Failed() {
		t.Errorf("%s: %s: got %s, want %s", r.ID, c.Name, c.Got, c.Want)
	}
	if r.Text == "" {
		t.Errorf("%s: empty artifact text", r.ID)
	}
}

func TestFig2(t *testing.T) {
	r, err := fig2()
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
	if !strings.Contains(r.Text, "read(") || !strings.Contains(r.Text, "<unfinished ...>") {
		t.Errorf("fig2 text lacks strace records:\n%s", r.Text)
	}
}

func TestFig3(t *testing.T) {
	r, err := fig3()
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
	if !strings.Contains(r.Text, "digraph") {
		t.Errorf("fig3 lacks DOT output")
	}
}

func TestFig4(t *testing.T) {
	r, err := fig4()
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
}

func TestFig5(t *testing.T) {
	r, err := fig5()
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
	if !strings.Contains(r.Text, "#") {
		t.Errorf("fig5 timeline has no bars:\n%s", r.Text)
	}
}

// The IOR figures run at full paper scale (96 ranks, 2 hosts); the
// discrete-event simulation completes in well under a second.
func TestFig8aFullScale(t *testing.T) {
	r, err := fig8a(Scale{})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
}

func TestFig8bFullScale(t *testing.T) {
	r, err := fig8b(Scale{})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
	for _, want := range []string{"openat:$SCRATCH/ssf", "write:$SCRATCH/fpp", "Load:"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("fig8b text missing %q", want)
		}
	}
}

func TestFig9FullScale(t *testing.T) {
	r, err := fig9(Scale{})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
	if strings.Contains(r.Text, "openat:$SCRATCH") {
		t.Errorf("fig9 must skip openat nodes as in the paper")
	}
}

func TestAblationLocks(t *testing.T) {
	r, err := ablationLocks(Scale{})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
}

func TestAblationSkew(t *testing.T) {
	r, err := ablationSkew()
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", Scale{}); err == nil {
		t.Errorf("unknown id accepted")
	}
	r, err := Run("fig5", Scale{})
	if err != nil || r.ID != "fig5" {
		t.Errorf("Run(fig5) = %v, %v", r, err)
	}
}

// Reduced scale still preserves every structural claim — the checks are
// parameterized by Scale.
func TestFig8bReducedScale(t *testing.T) {
	r, err := fig8b(Scale{Ranks: 16, Hosts: 2, Segments: 2, TransfersPerBlock: 4, NoPreamble: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, r)
}

func TestReportSummary(t *testing.T) {
	r := &Report{ID: "x", Title: "t"}
	r.checkInt("a", 1, 1)
	r.checkInt("b", 1, 2)
	s := r.Summary()
	if !strings.Contains(s, "PASS") || !strings.Contains(s, "FAIL") {
		t.Errorf("summary = %s", s)
	}
	if len(r.Failed()) != 1 {
		t.Errorf("failed = %v", r.Failed())
	}
}

func TestWorkloadExperiments(t *testing.T) {
	for _, id := range []string{"wl-ckpt", "wl-meta", "wl-shlog"} {
		r, err := Run(id, Scale{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkReport(t, r)
	}
}
