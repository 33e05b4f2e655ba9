package main

import (
	"io"
	"testing"

	"stinspector/internal/cliutil"
)

// The ls-scale figures run in microseconds; exercise the real dispatch.
func TestRunSingleFigure(t *testing.T) {
	for _, fig := range []string{"fig2", "fig3", "fig4", "fig5"} {
		if err := run([]string{"-fig", fig, "-checks-only"}); err != nil {
			t.Errorf("run(%s): %v", fig, err)
		}
	}
}

// The IOR figures at reduced scale keep the test fast while exercising
// the whole path.
func TestRunIORFigureReduced(t *testing.T) {
	err := run([]string{"-fig", "fig8b", "-checks-only",
		"-ranks", "16", "-hosts", "2", "-segments", "2", "-transfers", "4", "-seed", "5"})
	if err != nil {
		t.Errorf("run(fig8b reduced): %v", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "fig99"}); err == nil {
		t.Errorf("unknown figure accepted")
	}
}

// TestRunJSONRequiresIngest: -json outside -ingest mode is a usage
// error. Both modes are retired, so -json is now an unknown flag.
func TestRunJSONRequiresIngest(t *testing.T) {
	if err := run([]string{"-fig", "fig2a", "-json", "x.json"}); err == nil {
		t.Error("run(-fig -json) succeeded, want usage error")
	}
}

// TestRunUsageExitCodes is the table-driven flag-validation suite: an
// unknown flag — including every retired benchmark mode, whose timing
// moved to bench/ and whose matrix moved to TestScenarioMatrix — is a
// usage error (exit 2); an unknown figure is a runtime error (exit 1).
func TestRunUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"ok figure", []string{"-fig", "fig2", "-checks-only"}, 0},
		{"help request", []string{"-h"}, 0},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"unknown figure", []string{"-fig", "fig99"}, 1},
	}
	for _, retired := range []string{"-ingest", "-live", "-checkpoint", "-matrix", "-json", "-scoped-syms"} {
		cases = append(cases, struct {
			name string
			args []string
			exit int
		}{"retired " + retired, []string{"-fig", "fig2", retired, "4"}, 2})
	}
	for _, tc := range cases {
		err := run(tc.args)
		if got := cliutil.Report(io.Discard, "test", err); got != tc.exit {
			t.Errorf("%s: run(%v) -> exit %d (err %v), want %d", tc.name, tc.args, got, err, tc.exit)
		}
	}
}
