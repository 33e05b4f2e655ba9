package trace

import (
	"testing"
	"time"
)

// multiPIDLog builds a log where one rid recorded events of two child
// pids, the SMT/OpenMP situation of Section IV.
func multiPIDLog(t *testing.T) *EventLog {
	t.Helper()
	id := CaseID{CID: "omp", Host: "h1", RID: 100}
	c := NewCase(id, []Event{
		{PID: 200, Call: "read", Start: 1 * time.Second, Dur: time.Millisecond, FP: "/a", Size: 1},
		{PID: 201, Call: "read", Start: 2 * time.Second, Dur: time.Millisecond, FP: "/a", Size: 1},
		{PID: 200, Call: "write", Start: 3 * time.Second, Dur: time.Millisecond, FP: "/b", Size: 1},
		{PID: 201, Call: "write", Start: 4 * time.Second, Dur: time.Millisecond, FP: "/b", Size: 1},
	})
	id2 := CaseID{CID: "omp", Host: "h1", RID: 101}
	c2 := NewCase(id2, []Event{
		{PID: 210, Call: "openat", Start: 1 * time.Second, Dur: time.Millisecond, FP: "/c", Size: SizeUnknown},
	})
	return MustNewEventLog(c, c2)
}

func TestRegroupByPID(t *testing.T) {
	l := multiPIDLog(t)
	r := l.RegroupByPID()
	if r.NumCases() != 3 {
		t.Fatalf("regrouped cases = %d, want 3 (pids 200, 201, 210)", r.NumCases())
	}
	if r.NumEvents() != l.NumEvents() {
		t.Fatalf("regrouping lost events: %d vs %d", r.NumEvents(), l.NumEvents())
	}
	c200 := r.Case(CaseID{CID: "omp", Host: "h1", RID: 200})
	if c200 == nil || c200.Len() != 2 {
		t.Fatalf("pid-200 case = %v", c200)
	}
	for _, e := range c200.Events {
		if e.PID != 200 {
			t.Errorf("event pid = %d, want 200", e.PID)
		}
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Original untouched.
	if l.NumCases() != 2 {
		t.Errorf("original mutated")
	}
}

func TestRegroupPreservesOrder(t *testing.T) {
	l := multiPIDLog(t)
	r := l.RegroupByPID()
	c := r.Case(CaseID{CID: "omp", Host: "h1", RID: 201})
	if c.Events[0].Call != "read" || c.Events[1].Call != "write" {
		t.Errorf("order broken: %v", c.Events)
	}
	if !c.Sorted() {
		t.Errorf("regrouped case not sorted")
	}
}

func TestSplitByCID(t *testing.T) {
	l := demoLog(t)
	parts := l.SplitByCID()
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	if parts["a"].NumCases() != 3 || parts["b"].NumCases() != 3 {
		t.Errorf("split sizes: a=%d b=%d", parts["a"].NumCases(), parts["b"].NumCases())
	}
	total := 0
	for _, sub := range parts {
		total += sub.NumEvents()
	}
	if total != l.NumEvents() {
		t.Errorf("split lost events")
	}
}

func TestTimeShift(t *testing.T) {
	l := demoLog(t)
	shifted := l.TimeShift(func(id CaseID) time.Duration {
		if id.CID == "b" {
			return time.Hour
		}
		return 0
	})
	var minB, minA time.Duration = 1 << 62, 1 << 62
	for _, c := range shifted.Cases() {
		for _, e := range c.Events {
			if c.ID.CID == "b" && e.Start < minB {
				minB = e.Start
			}
			if c.ID.CID == "a" && e.Start < minA {
				minA = e.Start
			}
		}
	}
	if minB < time.Hour {
		t.Errorf("b not shifted: %v", minB)
	}
	if minA >= time.Hour {
		t.Errorf("a shifted: %v", minA)
	}
	// Original untouched.
	orig := false
	for _, c := range l.Cases() {
		for _, e := range c.Events {
			if c.ID.CID == "b" && e.Start < time.Hour {
				orig = true
			}
		}
	}
	if !orig {
		t.Errorf("TimeShift mutated the original log")
	}
}
