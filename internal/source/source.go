// Package source defines the streaming case-batch layer of the
// ingestion pipeline. A Source yields the cases of an event-log one at
// a time in deterministic CaseID order, so analysis can run at O(batch)
// memory instead of materializing the full log first — the enabling
// substrate for inspecting multi-GB trace sets (the paper's 512-rank
// IOR runs) on machines that cannot hold them.
//
// All three ingestion backends implement it: strace directories
// (strace.StreamFS), STA archives (archive.OpenSource, Reader.Stream)
// and Darshan DXT dumps (dxt.Stream). The in-memory form is Drain over
// any of these sources, so both paths share one ingestion discipline
// and stay byte-identical.
package source

import (
	"errors"
	"io"

	"stinspector/internal/trace"
)

// Source streams cases in deterministic order. It is not safe for
// concurrent use by multiple goroutines.
//
// The Next contract: (case, nil) yields the next case; (nil, io.EOF)
// signals exhaustion; any other (nil, err) means the case at this
// position failed to load — the source stays usable, and the caller
// decides whether to abandon (Close) or keep consuming (how strace's
// Strict mode collects every failure). After Close, Next returns
// ErrClosed.
type Source interface {
	Next() (*trace.Case, error)
	// Close releases the source's resources and cancels any outstanding
	// concurrent fetches. For the finite, fetch-based sources (Ordered
	// and the backend streams built on it) Close does not return until
	// every worker goroutine has exited, so abandoning a stream early
	// leaks neither goroutines nor file handles — safe precisely
	// because those workers are the source's own and each fetch is
	// finite. For live, push-based sources (Live), whose producers are
	// external and may never finish, Close must NOT wait for producers:
	// it wakes any goroutine blocked pushing into or reading from the
	// stream and returns immediately, so closing a live session cannot
	// deadlock on a wedged producer. Either way Close is idempotent and
	// Next returns ErrClosed afterwards.
	Close() error
}

// ErrClosed is returned by Next after Close.
var ErrClosed = errors.New("source: closed")

// peakResidenter is implemented by sources that track how many cases
// were resident (fetched but not yet consumed) at once — the observable
// behind the O(batch) memory claim.
type peakResidenter interface {
	PeakResident() int
}

// PeakResident reports the peak number of resident cases of a source,
// or 0 if the source does not track it.
func PeakResident(s Source) int {
	if p, ok := s.(peakResidenter); ok {
		return p.PeakResident()
	}
	return 0
}

// Walk consumes the source, calling fn for every case. A nil return
// means the stream was exhausted cleanly. Per-case errors follow the
// joinErrors policy: false aborts on the first one (deterministically
// the earliest in case order, since delivery is ordered); true skips
// the failing case, keeps consuming, and returns every failure joined —
// the two error semantics of strace lenient and Strict ingestion. An
// error from fn itself is always terminal. Walk does not Close the
// source.
func Walk(s Source, joinErrors bool, fn func(*trace.Case) error) error {
	var errs []error
	for {
		c, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if joinErrors {
				errs = append(errs, err)
				continue
			}
			return err
		}
		if err := fn(c); err != nil {
			return err
		}
	}
	return errors.Join(errs...)
}

// Drain materializes the rest of the source into an event-log, with the
// same joinErrors policy as Walk. It does not Close the source.
func Drain(s Source, joinErrors bool) (*trace.EventLog, error) {
	log, err := trace.NewEventLog()
	if err != nil {
		return nil, err
	}
	if err := Walk(s, joinErrors, log.Add); err != nil {
		return nil, err
	}
	return log, nil
}

// logSource streams an in-memory event-log, the bridge that lets the
// streaming analysis path consume already-materialized logs.
type logSource struct {
	cases  []*trace.Case
	closed bool
}

// FromLog returns a source over the log's cases in CaseID order.
func FromLog(el *trace.EventLog) Source { return &logSource{cases: el.Cases()} }

// FromCases returns a source over the given cases in the given order.
// Callers are responsible for ordering when determinism matters.
func FromCases(cases ...*trace.Case) Source {
	return &logSource{cases: append([]*trace.Case(nil), cases...)}
}

func (s *logSource) Next() (*trace.Case, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.cases) == 0 {
		return nil, io.EOF
	}
	c := s.cases[0]
	s.cases = s.cases[1:]
	return c, nil
}

func (s *logSource) Close() error {
	s.closed = true
	s.cases = nil
	return nil
}

// filterSource applies an event predicate to every case, dropping cases
// that end up empty — the streaming form of EventLog.Filter.
type filterSource struct {
	src  Source
	keep func(trace.Event) bool
}

// Filter derives a source yielding, for every case, only the events for
// which keep returns true; cases left without events are dropped, so a
// drained filtered stream equals EventLog.Filter of the drained stream.
func Filter(s Source, keep func(trace.Event) bool) Source {
	return &filterSource{src: s, keep: keep}
}

func (s *filterSource) Next() (*trace.Case, error) {
	for {
		c, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		fc := c.Filter(s.keep)
		if len(fc.Events) == 0 {
			continue
		}
		return fc, nil
	}
}

func (s *filterSource) Close() error { return s.src.Close() }

// PeakResident forwards the wrapped source's accounting.
func (s *filterSource) PeakResident() int { return PeakResident(s.src) }

// caseFilterSource drops whole cases by predicate — the streaming form
// of EventLog.FilterCases, and the case-split primitive behind the
// partition-based coloring over streams.
type caseFilterSource struct {
	src  Source
	keep func(*trace.Case) bool
}

// FilterCases derives a source yielding only the cases for which keep
// returns true. Cases are shared, not copied.
func FilterCases(s Source, keep func(*trace.Case) bool) Source {
	return &caseFilterSource{src: s, keep: keep}
}

func (s *caseFilterSource) Next() (*trace.Case, error) {
	for {
		c, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		if s.keep(c) {
			return c, nil
		}
	}
}

func (s *caseFilterSource) Close() error { return s.src.Close() }

// PeakResident forwards the wrapped source's accounting.
func (s *caseFilterSource) PeakResident() int { return PeakResident(s.src) }

// closerSource couples a source with an underlying resource (an open
// archive file, say) that must be released exactly once when the stream
// is closed.
type closerSource struct {
	Source
	closer io.Closer
	done   bool
}

// WithCloser returns a source whose Close also closes c (once).
func WithCloser(s Source, c io.Closer) Source {
	return &closerSource{Source: s, closer: c}
}

func (s *closerSource) Close() error {
	err := s.Source.Close()
	if !s.done {
		s.done = true
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// PeakResident forwards the wrapped source's accounting (interface
// embedding promotes only Next/Close, not optional capabilities).
func (s *closerSource) PeakResident() int { return PeakResident(s.Source) }
