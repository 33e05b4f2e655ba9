// Package cliutil holds the exit-status contract shared by the
// repository's commands: 0 on success (including an explicit -h/-help
// request), 2 for command-line (usage) errors, 1 for runtime failures.
// Both stinspect and stbench document this contract; keeping the
// classification here means it cannot drift between them.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// usageError marks command-line mistakes (bad flags, missing operands,
// contradictory options), distinguishing "you invoked me wrong" (exit
// 2) from "the work failed" (exit 1) in scripts.
type usageError struct{ Err error }

func (e usageError) Error() string { return e.Err.Error() }
func (e usageError) Unwrap() error { return e.Err }

// Usagef builds a usage error from a format string.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Usage wraps an existing error (a flag.FlagSet.Parse failure, say) as
// a usage error. A nil error stays nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return usageError{err}
}

// exitCode maps an error from a command's run function to the process
// exit status. An explicit help request is a success: flag has already
// printed the usage text the user asked for.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// Report prints err prefixed with the tool name (help requests and nil
// print nothing) and returns the exit status — the one-liner for a
// command's main.
func Report(w io.Writer, tool string, err error) int {
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(w, "%s: %v\n", tool, err)
	}
	return exitCode(err)
}
