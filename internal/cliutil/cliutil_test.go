package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"help request", flag.ErrHelp, 0},
		{"wrapped help request", Usage(flag.ErrHelp), 0},
		{"usage", Usagef("bad -x"), 2},
		{"wrapped usage", fmt.Errorf("context: %w", Usagef("bad")), 2},
		{"runtime", errors.New("disk on fire"), 1},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestUsage(t *testing.T) {
	if Usage(nil) != nil {
		t.Error("Usage(nil) != nil")
	}
	base := errors.New("boom")
	if !errors.Is(Usage(base), base) {
		t.Error("Usage does not unwrap to the original error")
	}
}

func TestReport(t *testing.T) {
	var b strings.Builder
	if got := Report(&b, "tool", Usagef("bad flag")); got != 2 || b.String() != "tool: bad flag\n" {
		t.Errorf("usage: exit %d, output %q", got, b.String())
	}
	b.Reset()
	if got := Report(&b, "tool", flag.ErrHelp); got != 0 || b.Len() != 0 {
		t.Errorf("help: exit %d, output %q — help requests must print nothing", got, b.String())
	}
	b.Reset()
	if got := Report(&b, "tool", nil); got != 0 || b.Len() != 0 {
		t.Errorf("nil: exit %d, output %q", got, b.String())
	}
}
