package source

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"stinspector/internal/trace"
)

// TestOrderedTokenConservation pins the window-token invariant behind
// ordSource.Next's slot refund: across a full drain, every one of the
// window tokens is either back in the semaphore or was destroyed by a
// worker's past-the-end claim — none is ever dropped. A lost token
// would shrink the effective window permanently; the refund panics
// rather than drop, and this test drives the accounting to exact
// numbers at several workers/window/corpus shapes, including windows
// smaller than the worker count and windows larger than the corpus.
func TestOrderedTokenConservation(t *testing.T) {
	cases := []struct{ workers, window, n int }{
		{workers: 4, window: 8, n: 100},
		{workers: 8, window: 3, n: 50},  // workers clamped to the window
		{workers: 3, window: 64, n: 10}, // window larger than the corpus
		{workers: 16, window: 16, n: 5}, // workers clamped to the corpus
		{workers: 2, window: 2, n: 200}, // tightest window that still fans out
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("w%d_win%d_n%d", tc.workers, tc.window, tc.n), func(t *testing.T) {
			var fetches atomic.Int64
			src := Ordered(tc.n, tc.workers, tc.window, func(i int) (*trace.Case, error) {
				fetches.Add(1)
				runtime.Gosched() // jitter claim interleavings
				id := trace.CaseID{CID: fmt.Sprintf("c%06d", i), Host: "h", RID: i}
				return trace.NewCase(id, []trace.Event{{
					Call: "read", FP: "/f",
				}}), nil
			})
			s, ok := src.(*ordSource)
			if !ok {
				t.Fatalf("combo did not build an ordSource (got %T)", src)
			}
			// The engine clamps workers to min(workers, n, window); the
			// spawned count determines how many tokens terminal claims
			// destroy.
			spawned := tc.workers
			if spawned > tc.n {
				spawned = tc.n
			}
			if spawned > tc.window {
				spawned = tc.window
			}

			delivered := 0
			for {
				c, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("c%06d", delivered); c.ID.CID != want {
					t.Fatalf("case %d delivered out of order: %s", delivered, c.ID.CID)
				}
				delivered++
			}
			if delivered != tc.n {
				t.Fatalf("delivered %d of %d cases", delivered, tc.n)
			}

			// Let every worker run to its natural exit (a claim past the
			// end): after the drain the semaphore holds enough tokens for
			// each remaining worker to claim once more and leave.
			s.wg.Wait()

			if got := fetches.Load(); got != int64(tc.n) {
				t.Errorf("fetch called %d times, want %d", got, tc.n)
			}
			// Exactly n in-range claims plus one terminal claim per worker.
			if got := int(s.ticket.Load()); got != tc.n+spawned {
				t.Errorf("ticket = %d, want %d (n) + %d (terminal claims)", got, tc.n, spawned)
			}
			// Token conservation: window tokens minus the one each
			// exiting worker destroyed are all back in the semaphore.
			if got, want := len(s.sem), tc.window-spawned; got != want {
				t.Errorf("semaphore holds %d tokens after drain, want %d (window %d - %d destroyed)",
					got, want, tc.window, spawned)
			}
			if len(s.pending) != 0 {
				t.Errorf("%d undelivered results pending after drain", len(s.pending))
			}
			if got := s.resident.Load(); got != 0 {
				t.Errorf("resident = %d after drain, want 0", got)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
