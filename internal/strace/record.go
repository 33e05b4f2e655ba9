// Package strace parses and generates traces in the textual format of the
// Linux strace utility, as produced by
//
//	strace -o FILE -f -e trace=... -tt -T -y CMD
//
// which is the instrumentation setup of Section III of the paper. The
// package recognizes complete system-call records, the
// "<unfinished ...>" / "<... call resumed>" pairs written under
// simultaneous multi-processing, interrupted calls (ERESTARTSYS), signal
// delivery records and process exit records. It converts trace files into
// trace.Case values and, in the other direction, renders synthetic event
// streams as strace-compatible text (used by the workload simulators).
package strace

import (
	"time"
)

// kind classifies a parsed strace record.
type kind int

const (
	// kindSyscall is a complete system-call record:
	// "read(3</etc/passwd>, ..., 4096) = 1612 <0.000037>".
	kindSyscall kind = iota
	// kindUnfinished is the first half of a call that was preempted by
	// activity on another process: "read(3</f>, <unfinished ...>".
	kindUnfinished
	// kindResumed is the second half: "<... read resumed> ..., 405) = 404 <0.000223>".
	kindResumed
	// kindExit is a process exit record: "+++ exited with 0 +++".
	kindExit
	// kindSignal is a signal delivery record: "--- SIGCHLD {...} ---".
	kindSignal
)

// String returns the name of the record kind.
func (k kind) String() string {
	switch k {
	case kindSyscall:
		return "syscall"
	case kindUnfinished:
		return "unfinished"
	case kindResumed:
		return "resumed"
	case kindExit:
		return "exit"
	case kindSignal:
		return "signal"
	}
	return "unknown"
}

// record is one parsed line of strace output. It keeps the raw argument
// list so that higher layers can apply call-specific interpretation (file
// path extraction, transfer sizes) without the parser having to know every
// system call.
type record struct {
	// PID is the process identifier column (strace -f). HasPID is false
	// when the trace was recorded without -f and the column is absent.
	PID    int
	HasPID bool

	// Time is the wall-clock timestamp of the record (strace -tt),
	// expressed as a duration since the host's midnight (or since the
	// epoch when the -ttt fractional-seconds form is encountered).
	Time time.Duration

	// Kind classifies the record.
	Kind kind

	// Call is the system call name. For kindSignal it holds the signal
	// name; for kindExit it is empty.
	Call string

	// Args are the top-level comma-separated argument strings, with
	// surrounding whitespace trimmed. For kindResumed these are only
	// the arguments that appeared after "resumed>".
	Args []string

	// Ret is the raw return token (everything between "= " and the
	// duration), e.g. "832", "-1", "3</etc/passwd>", "?".
	Ret string
	// RetInt is the integer return value when Ret parses as one
	// (including the fd of an fd-annotated return); RetOK reports
	// whether it did.
	RetInt int64
	RetOK  bool
	// RetPath is the path annotation of an fd-valued return
	// ("= 3</etc/passwd>" gives "/etc/passwd"), from strace -y.
	RetPath string
	// Errno is the symbolic errno of a failed call ("EBADF", or
	// "ERESTARTSYS" for interrupted calls). The conversion drops every
	// record that carries one.
	Errno string

	// Dur is the duration between start and return (strace -T); HasDur
	// reports whether the record carried one. Unfinished records never
	// do.
	Dur    time.Duration
	HasDur bool

	// ExitStatus is the status of a kindExit record.
	ExitStatus int

	// Line is the 1-based line number within the trace file.
	Line int
}

// firstArgPath returns the path annotation of the first fd-typed argument
// ("3</usr/lib/libc.so.6>" gives "/usr/lib/libc.so.6"). ok is false when
// the first argument carries no annotation.
func (r *record) firstArgPath() (path string, ok bool) {
	if len(r.Args) == 0 {
		return "", false
	}
	_, p, ok := splitFDPath(r.Args[0])
	return p, ok
}
