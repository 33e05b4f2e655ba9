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
	r := l.regroupByPID()
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
	r := l.regroupByPID()
	c := r.Case(CaseID{CID: "omp", Host: "h1", RID: 201})
	if c.Events[0].Call != "read" || c.Events[1].Call != "write" {
		t.Errorf("order broken: %v", c.Events)
	}
	if !c.Sorted() {
		t.Errorf("regrouped case not sorted")
	}
}
