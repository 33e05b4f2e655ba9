package source

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"stinspector/internal/trace"
)

// fetchFunc loads the case at position i of a fixed, pre-sorted work list.
// Implementations must be safe for concurrent calls with distinct i.
type fetchFunc func(i int) (*trace.Case, error)

// Ordered streams the results of fetch(0..n-1) in index order while
// running up to workers fetches concurrently, with at most window cases
// resident (fetched but not yet consumed) at any moment. It is the one
// bounded-reorder engine behind all three ingestion backends: workers
// claim indices monotonically and feed an ordered, bounded channel
// instead of a materialized slice, so peak memory is O(window) whatever
// the trace-set size.
//
// workers <= 0 means runtime.GOMAXPROCS(0); workers == 1 fetches lazily
// inline (no goroutines). window <= 0 defaults to 2*workers; workers is
// clamped to window, since more workers than resident slots can never
// run concurrently. Delivery order — and therefore which failing index
// a fail-fast consumer reports first — is deterministic for every
// workers/window setting.
func Ordered(n, workers, window int, fetch fetchFunc) Source {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if window <= 0 {
		window = 2 * workers
	}
	if workers > window {
		workers = window
	}
	if workers <= 1 {
		return &seqSource{n: n, fetch: fetch}
	}
	s := &ordSource{
		n:       n,
		fetch:   fetch,
		results: make(chan indexed, window),
		sem:     make(chan struct{}, window),
		stop:    make(chan struct{}),
		pending: make(map[int]indexed, window),
	}
	for i := 0; i < window; i++ {
		s.sem <- struct{}{}
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

// indexed is one fetch outcome traveling from a worker to the consumer.
type indexed struct {
	i   int
	c   *trace.Case
	err error
}

type ordSource struct {
	n     int
	fetch fetchFunc

	// ticket hands out fetch indices; claims are monotonic, and the
	// window semaphore bounds claimed-but-unconsumed indices, so index
	// claimed <= consumed + window always holds.
	ticket  atomic.Int64
	sem     chan struct{}
	results chan indexed
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	// Consumer state (single-goroutine by the Source contract).
	next    int
	pending map[int]indexed
	closed  bool

	resident atomic.Int64
	peak     atomic.Int64
}

func (s *ordSource) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.sem:
		}
		i := int(s.ticket.Add(1)) - 1
		if i >= s.n {
			return
		}
		c, err := s.fetch(i)
		if c != nil {
			cur := s.resident.Add(1)
			for {
				p := s.peak.Load()
				if cur <= p || s.peak.CompareAndSwap(p, cur) {
					break
				}
			}
		}
		select {
		case s.results <- indexed{i: i, c: c, err: err}:
		case <-s.stop:
			return
		}
	}
}

func (s *ordSource) Next() (*trace.Case, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.next >= s.n {
		return nil, io.EOF
	}
	for {
		if r, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			s.next++
			if r.c != nil {
				s.resident.Add(-1)
			}
			// Hand the freed window slot back to the workers. Token
			// conservation makes this send non-blocking: sem starts with
			// window tokens, every worker claim moves one token from sem
			// to the claimed index (or destroys it when the claim lands
			// past n), and each delivered index refunds its token exactly
			// once — right here. So at this point
			//
			//	tokens in sem + tokens held by undelivered claims
			//	  + destroyed tokens + 1 (this index's token) == window
			//
			// and sem holds at most window-1 tokens; the buffered send
			// always succeeds. A silent drop here would instead shrink
			// the effective window permanently, so a full channel is a
			// broken invariant worth crashing on, not a slot to leak.
			select {
			case s.sem <- struct{}{}:
			default:
				panic("source: ordered window refund would block; token invariant violated")
			}
			return r.c, r.err
		}
		r := <-s.results
		s.pending[r.i] = r
	}
}

// Close cancels outstanding fetches and waits for the workers to exit.
// The wait is safe only because Ordered's workers are its own and every
// fetch terminates: this is the finite-source half of the Source.Close
// contract. An infinite or externally-produced stream must use Live,
// whose Close never waits on producers — waiting here for a producer
// that never finishes would wedge the whole shutdown path.
func (s *ordSource) Close() error {
	s.closed = true
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	return nil
}

// PeakResident reports the maximum number of cases that were resident
// (fetched, not yet consumed) at once; bounded by the window.
func (s *ordSource) PeakResident() int { return int(s.peak.Load()) }

// seqSource is the workers == 1 path: fully lazy, one case resident.
type seqSource struct {
	n, next int
	fetch   fetchFunc
	closed  bool
	any     bool
}

func (s *seqSource) Next() (*trace.Case, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.next >= s.n {
		return nil, io.EOF
	}
	c, err := s.fetch(s.next)
	s.next++
	if c != nil {
		s.any = true
	}
	return c, err
}

func (s *seqSource) Close() error {
	s.closed = true
	return nil
}

func (s *seqSource) PeakResident() int {
	if s.any {
		return 1
	}
	return 0
}
