package source

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"stinspector/internal/trace"
)

// liveCase builds a minimal distinct case for queue tests.
func liveCase(i int) *trace.Case {
	id := trace.CaseID{CID: "live", Host: "h", RID: i}
	return trace.NewCase(id, []trace.Event{{
		PID: 100 + i, Call: "read", FP: "/data/f",
		Start: time.Duration(i) * time.Millisecond, Dur: time.Microsecond, Size: 1,
	}})
}

func TestLivePushNextFinish(t *testing.T) {
	l := NewLive(4, blockProducer)
	for i := 0; i < 3; i++ {
		if err := l.Push(liveCase(i)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	l.Fail(errors.New("stalled: /x.st"))
	l.Finish()
	if err := l.Push(liveCase(9)); !errors.Is(err, errFinished) {
		t.Fatalf("push after Finish: got %v, want errFinished", err)
	}

	var got []int
	var recoverable int
	for {
		c, err := l.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			recoverable++
			continue
		}
		got = append(got, c.ID.RID)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("delivered %v, want [0 1 2]", got)
	}
	if recoverable != 1 {
		t.Errorf("recoverable errors: got %d, want 1", recoverable)
	}
	if l.PeakResident() != 3 {
		t.Errorf("peak resident: got %d, want 3", l.PeakResident())
	}
	// io.EOF is sticky once drained.
	if _, err := l.Next(); err != io.EOF {
		t.Errorf("Next after EOF: got %v", err)
	}
}

func TestLiveNextAfterClose(t *testing.T) {
	l := NewLive(2, blockProducer)
	if err := l.Push(liveCase(0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close: got %v, want ErrClosed", err)
	}
	if err := l.Push(liveCase(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after Close: got %v, want ErrClosed", err)
	}
}

// TestLiveBlockBackpressure: under blockProducer, a producer pushing past the
// budget parks until the consumer frees a slot, and nothing is lost.
func TestLiveBlockBackpressure(t *testing.T) {
	const budget, n = 3, 24
	l := NewLive(budget, blockProducer)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := l.Push(liveCase(i)); err != nil {
				done <- fmt.Errorf("push %d: %w", i, err)
				return
			}
		}
		l.Finish()
		done <- nil
	}()

	seen, events := 0, 0
	for {
		c, err := l.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.ID.RID != seen {
			t.Fatalf("out-of-order delivery from a single producer: got %d, want %d", c.ID.RID, seen)
		}
		seen++
		events += c.Len()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if seen != n || events != n || l.Pushed() != n {
		t.Errorf("delivered %d cases / %d events of %d pushed, want %d of each (blockProducer must lose nothing)", seen, events, l.Pushed(), n)
	}
	if p := l.PeakResident(); p > budget {
		t.Errorf("peak resident %d exceeded budget %d", p, budget)
	}
	if l.Shed() != 0 {
		t.Errorf("blockProducer policy shed %d cases", l.Shed())
	}
}

// TestLiveShedOldest: with a full budget and no consumer, producers
// never block; the oldest cases are dropped and counted, the newest
// budget's worth survive.
func TestLiveShedOldest(t *testing.T) {
	const budget, n = 4, 16
	l := NewLive(budget, shedOldest)
	pushDone := make(chan struct{})
	go func() {
		defer close(pushDone)
		for i := 0; i < n; i++ {
			if err := l.Push(liveCase(i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		l.Finish()
	}()
	select {
	case <-pushDone:
	case <-time.After(10 * time.Second):
		t.Fatal("shedOldest producer blocked")
	}

	var got []int
	for {
		c, err := l.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c.ID.RID)
	}
	if len(got) != budget {
		t.Fatalf("delivered %v, want the newest %d cases", got, budget)
	}
	for i, rid := range got {
		if rid != n-budget+i {
			t.Errorf("slot %d: got case %d, want %d (shed must drop the oldest)", i, rid, n-budget+i)
		}
	}
	if want := uint64(n - budget); l.Shed() != want {
		t.Errorf("shed counter: got %d, want %d", l.Shed(), want)
	}
	if delivered := uint64(len(got)); delivered+l.Shed() != l.Pushed() {
		t.Errorf("%d delivered + %d shed != %d pushed: a case was lost uncounted", delivered, l.Shed(), l.Pushed())
	}
	if p := l.PeakResident(); p > budget {
		t.Errorf("peak resident %d exceeded budget %d", p, budget)
	}
}

// TestLiveShedKeepsErrors: queued recoverable errors are positions, not
// payload — shedding drops cases around them, never the errors.
func TestLiveShedKeepsErrors(t *testing.T) {
	l := NewLive(2, shedOldest)
	if err := l.Push(liveCase(0)); err != nil {
		t.Fatal(err)
	}
	l.Fail(errors.New("stall"))
	for i := 1; i < 5; i++ {
		if err := l.Push(liveCase(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Finish()
	var cases, errs int
	for {
		_, err := l.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			errs++
			continue
		}
		cases++
	}
	if errs != 1 {
		t.Errorf("errors delivered: got %d, want 1", errs)
	}
	if cases != 2 {
		t.Errorf("cases delivered: got %d, want 2 (budget)", cases)
	}
	if l.Shed() != 3 {
		t.Errorf("shed: got %d, want 3", l.Shed())
	}
}

// TestLiveCloseUnblocksWedgedProducer is the cancellation-propagation
// pin for the infinite-source Close contract: a producer wedged in Push
// against a full blockProducer budget — one that will never finish on its own —
// must be woken by Close with ErrClosed, and Close itself must return
// without waiting for it. A Close that waited for producers (the way
// Ordered's waits for its own workers) would deadlock right here.
func TestLiveCloseUnblocksWedgedProducer(t *testing.T) {
	l := NewLive(1, blockProducer)
	if err := l.Push(liveCase(0)); err != nil {
		t.Fatal(err)
	}

	const wedged = 4
	errc := make(chan error, wedged)
	var started sync.WaitGroup
	started.Add(wedged)
	for i := 0; i < wedged; i++ {
		go func(i int) {
			started.Done()
			errc <- l.Push(liveCase(1 + i)) // budget full: parks forever
		}(i)
	}
	started.Wait()
	// Give the producers a moment to actually park in Push; the test is
	// about waking them, which is correct whether or not they got there,
	// but parking first exercises the interesting path.
	time.Sleep(10 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a wedged producer")
	}

	for i := 0; i < wedged; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("wedged producer %d returned %v, want ErrClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("wedged producer never woke after Close")
		}
	}
}

// TestLiveConcurrentProducers: many producers, one consumer, both
// policies, under the race detector. Every pushed case is either
// delivered or (under shedOldest) counted shed — none vanish.
func TestLiveConcurrentProducers(t *testing.T) {
	for _, policy := range []Policy{blockProducer, shedOldest} {
		t.Run(policy.String(), func(t *testing.T) {
			const producers, per = 8, 50
			l := NewLive(5, policy)
			var wg sync.WaitGroup
			wg.Add(producers)
			for p := 0; p < producers; p++ {
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := l.Push(liveCase(p*per + i)); err != nil {
							t.Errorf("producer %d: %v", p, err)
							return
						}
					}
				}(p)
			}
			go func() {
				wg.Wait()
				l.Finish()
			}()
			delivered := 0
			for {
				_, err := l.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				delivered++
			}
			total := delivered + int(l.Shed())
			if total != producers*per {
				t.Errorf("delivered %d + shed %d = %d, want %d", delivered, l.Shed(), total, producers*per)
			}
			if policy == blockProducer && l.Shed() != 0 {
				t.Errorf("blockProducer shed %d", l.Shed())
			}
			if p := l.PeakResident(); p > 5 {
				t.Errorf("peak resident %d exceeded budget", p)
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"block", blockProducer, true},
		{"", blockProducer, true},
		{"shed-oldest", shedOldest, true},
		{"drop", blockProducer, false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || (err == nil && got != tc.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
