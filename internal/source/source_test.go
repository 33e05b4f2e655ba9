package source

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stinspector/internal/trace"
)

// mkCase builds a tiny case with a deterministic identity and one event.
func mkCase(i int) *trace.Case {
	id := trace.CaseID{CID: "s", Host: "h", RID: i}
	return trace.NewCase(id, []trace.Event{{
		PID: i, Call: "read", Start: time.Duration(i) * time.Microsecond,
		Dur: time.Microsecond, FP: "/f", Size: 1,
	}})
}

// TestOrderedDeliversInOrder: every workers/window combination must
// deliver cases in exact index order.
func TestOrderedDeliversInOrder(t *testing.T) {
	const n = 100
	for _, cfg := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {4, 16}, {16, 8}, {0, 0}} {
		s := Ordered(n, cfg[0], cfg[1], func(i int) (*trace.Case, error) {
			return mkCase(i), nil
		})
		for i := 0; i < n; i++ {
			c, err := s.Next()
			if err != nil {
				t.Fatalf("workers=%d window=%d: Next %d: %v", cfg[0], cfg[1], i, err)
			}
			if c.ID.RID != i {
				t.Fatalf("workers=%d window=%d: got case %d at position %d", cfg[0], cfg[1], c.ID.RID, i)
			}
		}
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("workers=%d window=%d: want io.EOF, got %v", cfg[0], cfg[1], err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOrderedWindowBound: with a slow consumer, the number of cases
// fetched but not yet consumed never exceeds the window.
func TestOrderedWindowBound(t *testing.T) {
	const n, workers, window = 64, 8, 4
	var inFlight, maxInFlight atomic.Int64
	s := Ordered(n, workers, window, func(i int) (*trace.Case, error) {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		return mkCase(i), nil
	})
	defer s.Close()
	for i := 0; i < n; i++ {
		// Case i counts as consumed once Next(i) begins, not after it
		// returns: Next refunds the case's window slot before returning,
		// so a worker may legally start index i+window while the call is
		// still in flight. Decrementing after the return counted case i
		// past its refund and saw window+1 spuriously under -race. A
		// refund happens only inside a Next call already begun, so this
		// counter never exceeds the fetched-but-unconsumed cases the
		// window bounds; between calls (the sleeps below let workers run
		// ahead) the two are equal, so a real overrun still shows.
		inFlight.Add(-1)
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			time.Sleep(time.Millisecond) // let workers run ahead if they could
		}
	}
	if got := maxInFlight.Load(); got > window {
		t.Errorf("max cases in flight %d exceeds window %d", got, window)
	}
	if peak := PeakResident(s); peak == 0 || peak > window {
		t.Errorf("PeakResident = %d, want in [1, %d]", peak, window)
	}
}

// TestOrderedPerCaseErrors: a failing index surfaces as an error at its
// position; the stream continues past it, so join-all consumers see
// every failure and fail-fast consumers deterministically see the first.
func TestOrderedPerCaseErrors(t *testing.T) {
	const n = 20
	bad := map[int]bool{3: true, 7: true, 15: true}
	mk := func() Source {
		return Ordered(n, 4, 4, func(i int) (*trace.Case, error) {
			if bad[i] {
				return nil, fmt.Errorf("boom %d", i)
			}
			return mkCase(i), nil
		})
	}

	s := mk()
	var got []string
	kept := 0
	err := Walk(s, true, func(c *trace.Case) error { kept++; return nil })
	s.Close()
	if err == nil {
		t.Fatal("want joined errors")
	}
	for i := range bad {
		if !strings.Contains(err.Error(), fmt.Sprintf("boom %d", i)) {
			t.Errorf("joined error missing boom %d: %v", i, err)
		}
	}
	if kept != n-len(bad) {
		t.Errorf("kept %d cases, want %d", kept, n-len(bad))
	}

	// Fail-fast: always the smallest failing index, whatever the timing.
	for trial := 0; trial < 20; trial++ {
		s := mk()
		err := Walk(s, false, func(c *trace.Case) error { got = append(got, c.ID.String()); return nil })
		s.Close()
		if err == nil || !strings.Contains(err.Error(), "boom 3") {
			t.Fatalf("trial %d: want boom 3 first, got %v", trial, err)
		}
	}
}

// TestOrderedCloseStopsWorkers: abandoning a stream early must wind all
// worker goroutines down (the Close contract) — counted before/after.
func TestOrderedCloseStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		s := Ordered(1000, 8, 8, func(i int) (*trace.Case, error) {
			time.Sleep(50 * time.Microsecond)
			return mkCase(i), nil
		})
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Next(); err != ErrClosed {
			t.Fatalf("after Close: want ErrClosed, got %v", err)
		}
	}
	// Close waits for workers, so no settling loop should be needed;
	// allow a tiny grace for unrelated runtime goroutines.
	var after int
	for i := 0; i < 50; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestWrappersForwardPeakResident: the combinators must not hide the
// wrapped engine's resident-case accounting (regression: interface
// embedding promotes only Next/Close).
func TestWrappersForwardPeakResident(t *testing.T) {
	mk := func() Source {
		return Ordered(16, 2, 4, func(i int) (*trace.Case, error) { return mkCase(i), nil })
	}
	wrap := map[string]func(Source) Source{
		"filter":      func(s Source) Source { return Filter(s, func(trace.Event) bool { return true }) },
		"filterCases": func(s Source) Source { return FilterCases(s, func(*trace.Case) bool { return true }) },
		"withCloser":  func(s Source) Source { return WithCloser(s, io.NopCloser(nil)) },
	}
	for name, w := range wrap {
		s := w(mk())
		if _, err := Drain(s, false); err != nil {
			t.Fatal(err)
		}
		if got := PeakResident(s); got == 0 {
			t.Errorf("%s: PeakResident not forwarded (got 0)", name)
		}
		s.Close()
	}
}

// TestDrainMatchesFromLog: drain(stream(log)) round-trips the log.
func TestDrainMatchesFromLog(t *testing.T) {
	cases := make([]*trace.Case, 30)
	for i := range cases {
		cases[i] = mkCase(i)
	}
	el := trace.MustNewEventLog(cases...)
	s := FromLog(el)
	defer s.Close()
	got, err := Drain(s, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCases() != el.NumCases() || got.NumEvents() != el.NumEvents() {
		t.Fatalf("drained %d cases / %d events, want %d / %d",
			got.NumCases(), got.NumEvents(), el.NumCases(), el.NumEvents())
	}
}

// TestNextBatch: batches are ordered, short at EOF, and error-delimited.
func TestNextBatch(t *testing.T) {
	s := Ordered(10, 2, 4, func(i int) (*trace.Case, error) {
		if i == 7 {
			return nil, errors.New("bad seven")
		}
		return mkCase(i), nil
	})
	defer s.Close()
	b1, err := NextBatch(s, 4)
	if err != nil || len(b1) != 4 {
		t.Fatalf("batch 1: %d cases, err %v", len(b1), err)
	}
	b2, err := NextBatch(s, 4)
	if err == nil || len(b2) != 3 {
		t.Fatalf("batch 2: want 3 cases + error, got %d, %v", len(b2), err)
	}
	b3, err := NextBatch(s, 4)
	if err != io.EOF || len(b3) != 2 {
		t.Fatalf("batch 3: want 2 cases + io.EOF, got %d, %v", len(b3), err)
	}
	if _, err := NextBatch(s, 0); err == nil {
		t.Error("batch size 0 accepted")
	}
}

// TestFilterDropsEmptyCases: the streaming filter matches
// EventLog.Filter — events dropped, empty cases removed entirely.
func TestFilterDropsEmptyCases(t *testing.T) {
	a := trace.NewCase(trace.CaseID{CID: "f", Host: "h", RID: 0}, []trace.Event{
		{PID: 1, Call: "read", FP: "/keep/x", Dur: time.Microsecond},
		{PID: 1, Call: "read", FP: "/drop/y", Dur: time.Microsecond},
	})
	b := trace.NewCase(trace.CaseID{CID: "f", Host: "h", RID: 1}, []trace.Event{
		{PID: 2, Call: "read", FP: "/drop/z", Dur: time.Microsecond},
	})
	el := trace.MustNewEventLog(a, b)
	keep := func(e trace.Event) bool { return strings.Contains(e.FP, "/keep") }

	s := Filter(FromLog(el), keep)
	defer s.Close()
	got, err := Drain(s, false)
	if err != nil {
		t.Fatal(err)
	}
	want := el.Filter(keep)
	if got.NumCases() != want.NumCases() || got.NumEvents() != want.NumEvents() {
		t.Fatalf("filtered stream: %d cases / %d events, want %d / %d",
			got.NumCases(), got.NumEvents(), want.NumCases(), want.NumEvents())
	}
}
