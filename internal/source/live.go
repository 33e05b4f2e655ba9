package source

import (
	"errors"
	"io"
	"sync"

	"stinspector/internal/trace"
)

// Policy selects what a Live source does when a producer pushes into a
// full in-flight budget.
type Policy uint8

const (
	// blockProducer makes Push wait until the consumer frees a slot (or
	// the source is closed). Producers are throttled to the consumer's
	// pace; nothing is ever lost, at the cost of producer latency.
	blockProducer Policy = iota
	// shedOldest drops the oldest queued case to make room for the new
	// one, incrementing the shed counter. Producers never block and
	// memory stays bounded whatever the consumer does, at the cost of
	// losing the stalest data — the monitoring trade.
	shedOldest
)

// String names the policy the way the CLIs spell it.
func (p Policy) String() string {
	switch p {
	case blockProducer:
		return "block"
	case shedOldest:
		return "shed-oldest"
	}
	return "unknown"
}

// ParsePolicy parses the CLI spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block", "":
		return blockProducer, nil
	case "shed-oldest":
		return shedOldest, nil
	}
	return blockProducer, errors.New("source: unknown overflow policy " + s + " (want block or shed-oldest)")
}

// errFinished is returned by Live.Push after Finish: the producer side
// has been sealed and no more cases may enter the stream.
var errFinished = errors.New("source: live source finished")

// DefaultLiveBudget is the in-flight case budget used when NewLive is
// given a budget <= 0.
const DefaultLiveBudget = 64

// Live adapts push-style producers (follow-mode tailers, ingest
// handlers) to the pull-style Source contract, with a hard in-flight
// case budget between them. It is the backpressure boundary of the
// live-ingestion path: however fast producers push and however slow the
// analysis fold consumes, at most budget cases are resident in the
// queue — a slow consumer can never OOM the process. Overflow follows
// the Policy: blockProducer throttles producers, shedOldest drops the
// stalest queued case and counts it.
//
// Unlike the batch sources, delivery order is completion order, not
// CaseID order: whichever case finishes first is delivered first. The
// analysis aggregates are fold-order-invariant (their finalized
// artifacts are canonical whatever order cases arrive), so this is a
// latency choice, not a correctness one.
//
// The producer side (Push, Fail, Finish) is safe for concurrent use by
// any number of goroutines; the consumer side (Next) keeps the
// single-goroutine Source contract.
//
// Close semantics for the infinite-source case: an unfinished Live
// stream has producers that may never finish, so — unlike Ordered,
// whose Close waits for its own bounded workers to drain — Live.Close
// never waits for producers. It marks the stream closed and wakes every
// goroutine blocked in Push or Next; blocked producers return ErrClosed
// immediately. Closing a live session therefore cannot deadlock on a
// wedged producer (pinned by TestLiveCloseUnblocksWedgedProducer).
type Live struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	budget int
	policy Policy

	q        []liveItem
	resident int // queued cases (errors are not charged to the budget)
	peak     int
	shed     uint64
	pushed   uint64
	finished bool
	closed   bool
}

// liveItem is one queue entry: a delivered case or a recoverable error
// at its position (the Fail path).
type liveItem struct {
	c   *trace.Case
	err error
}

// NewLive returns a live source with the given in-flight case budget
// (<= 0 means DefaultLiveBudget) and overflow policy.
func NewLive(budget int, policy Policy) *Live {
	if budget <= 0 {
		budget = DefaultLiveBudget
	}
	l := &Live{budget: budget, policy: policy}
	l.notFull.L = &l.mu
	l.notEmpty.L = &l.mu
	return l
}

// Push delivers a completed case into the stream. Under blockProducer
// it waits for a free budget slot; under shedOldest it drops the oldest
// queued case (counting it) when the budget is full. Push returns ErrClosed if
// the source is (or becomes, while blocked) closed, and errFinished
// after Finish; both mean the producer should stop.
func (l *Live) Push(c *trace.Case) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		switch {
		case l.closed:
			return ErrClosed
		case l.finished:
			return errFinished
		case l.resident < l.budget:
			l.q = append(l.q, liveItem{c: c})
			l.resident++
			l.pushed++
			if l.resident > l.peak {
				l.peak = l.resident
			}
			l.notEmpty.Signal()
			return nil
		case l.policy == shedOldest:
			// Drop the oldest queued *case*; queued errors are kept (they
			// are positions, not payload, and cost no budget).
			for i := range l.q {
				if l.q[i].c != nil {
					l.q = append(l.q[:i], l.q[i+1:]...)
					break
				}
			}
			l.resident--
			l.shed++
		default: // blockProducer
			l.notFull.Wait()
		}
	}
}

// Fail surfaces a recoverable per-position error to the consumer, the
// live counterpart of a batch source's per-case error: Next returns it
// at this queue position and the stream continues. Errors are not
// charged to the case budget and are never shed. Fail after Close or
// Finish is a no-op (the consumer is gone or the stream is sealed).
func (l *Live) Fail(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.finished {
		return
	}
	l.q = append(l.q, liveItem{err: err})
	l.notEmpty.Signal()
}

// Finish seals the producer side: subsequent Push/Fail calls are
// rejected/ignored, and once the queue drains Next returns io.EOF — the
// graceful end of a live stream (drain-then-shutdown). Finish is
// idempotent and never blocks.
func (l *Live) Finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.finished = true
	l.notEmpty.Broadcast()
	l.notFull.Broadcast()
}

// Next implements Source: it blocks until a case (or a recoverable
// error) is available, the stream is finished and drained (io.EOF), or
// the source is closed (ErrClosed).
func (l *Live) Next() (*trace.Case, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return nil, ErrClosed
		}
		if len(l.q) > 0 {
			it := l.q[0]
			l.q = l.q[1:]
			if it.c != nil {
				l.resident--
				l.notFull.Signal()
				return it.c, nil
			}
			return nil, it.err
		}
		if l.finished {
			return nil, io.EOF
		}
		l.notEmpty.Wait()
	}
}

// Close abandons the stream: the queue is dropped and every goroutine
// blocked in Push or Next is woken immediately (producers see
// ErrClosed). Close never waits for producers — see the type comment —
// and is idempotent.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.q = nil
	l.resident = 0
	l.notEmpty.Broadcast()
	l.notFull.Broadcast()
	return nil
}

// Shed reports how many cases the shedOldest policy dropped — the
// bounded-degradation counter of the live path.
func (l *Live) Shed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shed
}

// Pushed reports how many cases entered the stream (shed ones
// included).
func (l *Live) Pushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pushed
}

// Resident reports how many cases are queued right now.
func (l *Live) Resident() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resident
}

// PeakResident reports the maximum number of cases that were queued at
// once; bounded by the budget.
func (l *Live) PeakResident() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}
