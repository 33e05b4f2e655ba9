package strace

import (
	"fmt"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// transferCalls is the set of system calls whose return value is a
// transfer size (the "variants of read and write" of Section III).
var transferCalls = map[string]bool{
	"read": true, "pread64": true, "readv": true, "preadv": true, "preadv2": true,
	"write": true, "pwrite64": true, "writev": true, "pwritev": true, "pwritev2": true,
}

// ioCalls is the set of I/O-related calls the paper's experiments
// trace; together with behaviorCalls it forms the fixed extraction set.
// Every other call is dropped before its path is decoded.
var ioCalls = map[string]bool{
	"read": true, "pread64": true, "readv": true, "preadv": true, "preadv2": true,
	"write": true, "pwrite64": true, "writev": true, "pwritev": true, "pwritev2": true,
	"openat": true, "open": true, "creat": true, "close": true,
	"lseek": true, "fsync": true, "fdatasync": true,
}

// behaviorCalls is the set of calls the semantic decoding layer turns
// into behavior-profile events beyond plain I/O: file mutations
// (delete, rename, create-directory, truncate), process spawns and
// network connections. They are part of the extraction set so behavior
// profiles agree across every ingestion backend.
var behaviorCalls = map[string]bool{
	"unlink": true, "unlinkat": true, "rmdir": true,
	"rename": true, "renameat": true, "renameat2": true,
	"mkdir": true, "mkdirat": true,
	"truncate": true, "ftruncate": true,
	"execve": true, "execveat": true,
	"connect": true,
}

// Options configures the record-to-event conversion. The calls kept
// are fixed: the completed, non-failed calls of ioCalls ∪ behaviorCalls
// (Section III).
type Options struct {
	// Strict makes structural problems (a resumed record with no
	// matching unfinished record, or a dangling unfinished record at
	// EOF) an error instead of a silent drop.
	Strict bool
	// Parallelism bounds the number of trace files parsed concurrently
	// by StreamFS/StreamDir (and, through core.FromStraceDir, the whole
	// ingestion facade). 0 means runtime.GOMAXPROCS(0); 1 forces
	// the sequential path. The merged event-log is identical for every
	// setting: files are parsed independently and delivered in
	// deterministic CaseID order.
	Parallelism int
	// Window bounds how many parsed cases may be resident (fetched but
	// not yet consumed) in the streaming path at once — the knob behind
	// the O(batch) memory guarantee of StreamFS/StreamDir. 0 means
	// 2×Parallelism. It only changes peak memory during ingestion, never
	// the result.
	Window int
	// Syms selects the string table Call/FP/CID/Host strings are
	// canonicalized through. Nil means the process-wide table,
	// which is append-only for the life of the process — fine for the
	// paper's bounded vocabulary. A long-lived service ingesting an
	// unbounded path vocabulary should scope a table to the pass
	// (intern.NewTable) so dropping the pass's results makes its
	// strings collectable. The parsed events are identical either way;
	// only string retention differs.
	Syms *intern.Table
}

// eventsFromRecords converts parsed records into events for the given
// case, merging unfinished/resumed pairs and applying the paper's
// filtering rules. Records must be given in file order; the resulting
// events are ordered by start time (strace preserves event order, and
// the merge assigns each merged call its original start timestamp).
// Call names and file paths canonicalize through the caller-owned
// string cache, so the per-file parse worker does not re-acquire a
// cache per record. It consumes
// records: the complete calls to keep are compacted to its front (each
// record yields at most one, so the write never passes the read), then
// converted into a slice of exactly that many events. The case that
// takes ownership of it keeps no capacity for records that were merged
// or filtered out.
func eventsFromRecords(id trace.CaseID, records []record, opts Options, cache *intern.Cache) ([]trace.Event, error) {
	kept := records[:0]
	// strace guarantees at most one outstanding (unfinished) call per
	// process, so a single pending record per PID suffices.
	pending := make(map[int]record)

	// Interrupted (ERESTARTSYS) and failed calls are dropped, and so is
	// every call outside the extraction set.
	emit := func(r *record) {
		if r.Errno != "" || !(ioCalls[r.Call] || behaviorCalls[r.Call]) {
			return
		}
		kept = append(kept, *r)
	}

	// -tt timestamps are time of day and wrap at midnight; a trace
	// crossing 00:00 would otherwise go non-monotonic (negative
	// inter-event deltas, broken concurrency intervals). A backward
	// jump of more than half a day is a wrap — add a day and keep the
	// offset; a forward jump of more than half a day while an offset is
	// active is a straggler record emitted before the wrap — subtract a
	// day for that record only. Epoch (-ttt) stamps never jump that
	// far, so they pass through untouched.
	const day = 24 * time.Hour
	var dayOffset, last time.Duration
	haveTime := false

	for i := range records {
		r := &records[i]
		t := r.Time + dayOffset
		if haveTime {
			switch {
			case t < last && last-t > day/2:
				dayOffset += day
				t += day
			case t > last && t-last > day/2 && dayOffset >= day:
				t -= day
			}
		}
		haveTime = true
		if t > last {
			last = t
		}
		r.Time = t
		switch r.Kind {
		case kindSyscall:
			emit(r)
		case kindUnfinished:
			if prev, dup := pending[r.PID]; dup {
				if opts.Strict {
					return nil, fmt.Errorf("strace: case %s: line %d: pid %d has two outstanding calls (%s at line %d, %s)",
						id, r.Line, r.PID, prev.Call, prev.Line, r.Call)
				}
				// Drop the stale record and start over.
			}
			pending[r.PID] = *r
		case kindResumed:
			u, ok := pending[r.PID]
			if !ok || u.Call != r.Call {
				if opts.Strict {
					return nil, fmt.Errorf("strace: case %s: line %d: resumed %s for pid %d without matching unfinished record",
						id, r.Line, r.Call, r.PID)
				}
				continue
			}
			delete(pending, r.PID)
			mergeUnfinished(&u, r)
			emit(r)
		case kindExit, kindSignal:
			// Not system calls; ignored.
		}
	}
	if len(pending) > 0 && opts.Strict {
		for pid, u := range pending {
			return nil, fmt.Errorf("strace: case %s: pid %d: %s at line %d never resumed",
				id, pid, u.Call, u.Line)
		}
	}
	// scratch backs the byte-built file paths (dirfd joins, unescapes,
	// spawn command lines, connection subjects) across the whole case;
	// CanonBytes interns from it without materializing a string.
	var scratch []byte
	events := make([]trace.Event, len(kept))
	for i := range kept {
		events[i] = recordToEvent(&kept[i], cache, &scratch)
	}
	return events, nil
}

// mergeUnfinished merges an unfinished record into its resumed
// counterpart r, which becomes the single complete record: arguments
// are concatenated, the start timestamp comes from the unfinished half,
// and the return value, transfer size and duration come from the
// resumed half (Section III).
func mergeUnfinished(u, r *record) {
	r.Kind = kindSyscall
	r.Time = u.Time
	r.Line = u.Line
	args := append([]string(nil), u.Args...)
	args = append(args, r.Args...)
	// The unfinished half can end in an empty fragment when the split
	// happened right after a comma.
	clean := args[:0]
	for _, a := range args {
		if a != "" {
			clean = append(clean, a)
		}
	}
	r.Args = clean
}

// recordToEvent applies the attribute extraction rules of Section III to a
// complete record: the file path comes from the semantic decoding layer
// (decode.go) — the fd annotation of the first argument, the annotated
// return fd of openat and friends with dirfd-resolved fallbacks, the
// decoded command line of a spawn, the canonical address of a connect —
// and the transfer size from the return value of read/write variants.
// The call name and path are canonicalized through the string cache, so
// the event holds interned strings rather than per-event substring pins
// of the trace line; byte-built paths intern straight from scratch.
func recordToEvent(r *record, cache *intern.Cache, scratch *[]byte) trace.Event {
	e := trace.Event{
		PID:   r.PID,
		Call:  cache.Canon(r.Call),
		Start: r.Time,
		Dur:   r.Dur,
		Size:  trace.SizeUnknown,
	}
	if p, built := extractPathInto(r, scratch); built {
		e.FP = cache.CanonBytes(*scratch)
	} else {
		e.FP = cache.Canon(p)
	}
	if transferCalls[r.Call] && r.RetOK && r.RetPath == "" && r.RetInt >= 0 {
		e.Size = r.RetInt
	}
	return e
}
