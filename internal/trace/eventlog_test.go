package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// demoLog builds a small two-command event-log resembling the paper's
// ls / ls -l example: cids "a" and "b", three rids each.
func demoLog(t *testing.T) *EventLog {
	t.Helper()
	var cases []*Case
	for i, rid := range []int{9042, 9043, 9045} {
		cases = append(cases, NewCase(CaseID{CID: "a", Host: "host1", RID: rid}, []Event{
			{PID: 9054 + i, Call: "read", Start: 1 * time.Second, Dur: 100 * time.Microsecond, FP: "/usr/lib/libc.so.6", Size: 832},
			{PID: 9054 + i, Call: "read", Start: 2 * time.Second, Dur: 50 * time.Microsecond, FP: "/proc/filesystems", Size: 478},
			{PID: 9054 + i, Call: "write", Start: 3 * time.Second, Dur: 111 * time.Microsecond, FP: "/dev/pts/7", Size: 50},
		}))
	}
	for i, rid := range []int{9157, 9158, 9160} {
		cases = append(cases, NewCase(CaseID{CID: "b", Host: "host1", RID: rid}, []Event{
			{PID: 9173 + i, Call: "read", Start: 1 * time.Second, Dur: 90 * time.Microsecond, FP: "/usr/lib/libc.so.6", Size: 832},
			{PID: 9173 + i, Call: "read", Start: 2 * time.Second, Dur: 37 * time.Microsecond, FP: "/etc/passwd", Size: 1612},
			{PID: 9173 + i, Call: "openat", Start: 2500 * time.Millisecond, Dur: 20 * time.Microsecond, FP: "/etc/group", Size: SizeUnknown},
			{PID: 9173 + i, Call: "write", Start: 3 * time.Second, Dur: 74 * time.Microsecond, FP: "/dev/pts/7", Size: 9},
		}))
	}
	l, err := NewEventLog(cases...)
	if err != nil {
		t.Fatalf("NewEventLog: %v", err)
	}
	return l
}

func TestEventLogBasics(t *testing.T) {
	l := demoLog(t)
	if got, want := l.NumCases(), 6; got != want {
		t.Errorf("NumCases = %d, want %d", got, want)
	}
	if got, want := l.NumEvents(), 3*3+3*4; got != want {
		t.Errorf("NumEvents = %d, want %d", got, want)
	}
	if c := l.Case(CaseID{CID: "a", Host: "host1", RID: 9043}); c == nil {
		t.Errorf("Case lookup failed")
	}
	if c := l.Case(CaseID{CID: "z", Host: "host1", RID: 1}); c != nil {
		t.Errorf("Case lookup for absent id = %v, want nil", c.ID)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEventLogDeterministicOrder(t *testing.T) {
	l := demoLog(t)
	var ids []CaseID
	for _, c := range l.Cases() {
		ids = append(ids, c.ID)
	}
	for i := 1; i < len(ids); i++ {
		if !ids[i-1].Less(ids[i]) {
			t.Fatalf("cases not ordered: %v before %v", ids[i-1], ids[i])
		}
	}
	// Insertion order must not matter.
	rev, _ := NewEventLog()
	cs := l.Cases()
	for i := len(cs) - 1; i >= 0; i-- {
		if err := rev.Add(cs[i]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	var revIDs []CaseID
	for _, c := range rev.Cases() {
		revIDs = append(revIDs, c.ID)
	}
	if !reflect.DeepEqual(ids, revIDs) {
		t.Errorf("order depends on insertion: %v vs %v", ids, revIDs)
	}
}

func TestEventLogDuplicateCase(t *testing.T) {
	id := CaseID{CID: "a", Host: "h", RID: 1}
	_, err := NewEventLog(NewCase(id, nil), NewCase(id, nil))
	if err == nil {
		t.Fatalf("duplicate case accepted")
	}
}

func TestEventLogFilterPath(t *testing.T) {
	l := demoLog(t)
	f := l.FilterPath("/usr/lib")
	if got, want := f.NumEvents(), 6; got != want {
		t.Errorf("FilterPath events = %d, want %d", got, want)
	}
	if got, want := f.NumCases(), 6; got != want {
		t.Errorf("FilterPath cases = %d, want %d", got, want)
	}
	f.Events(func(e Event) {
		if e.FP != "/usr/lib/libc.so.6" {
			t.Errorf("unexpected event after filter: %v", e)
		}
	})
	// The original log is untouched.
	if got, want := l.NumEvents(), 21; got != want {
		t.Errorf("original mutated: %d events", got)
	}
	// Filtering to nothing drops all cases.
	if empty := l.FilterPath("/no/such/prefix"); empty.NumCases() != 0 {
		t.Errorf("empty filter kept %d cases", empty.NumCases())
	}
}

func TestEventLogFilterCalls(t *testing.T) {
	l := demoLog(t)
	f := l.FilterCalls("openat")
	if got, want := f.NumEvents(), 3; got != want {
		t.Errorf("FilterCalls(openat) = %d events, want %d", got, want)
	}
	if got, want := f.NumCases(), 3; got != want {
		t.Errorf("FilterCalls(openat) = %d cases, want %d", got, want)
	}
}

func TestEventLogPartitionByCID(t *testing.T) {
	l := demoLog(t)
	g, r := l.PartitionByCID("a")
	if g.NumCases() != 3 || r.NumCases() != 3 {
		t.Fatalf("partition sizes = %d/%d, want 3/3", g.NumCases(), r.NumCases())
	}
	for _, c := range g.Cases() {
		if c.ID.CID != "a" {
			t.Errorf("green contains %v", c.ID)
		}
	}
	for _, c := range r.Cases() {
		if c.ID.CID != "b" {
			t.Errorf("red contains %v", c.ID)
		}
	}
	// Partition is exact: together they hold every case exactly once.
	if g.NumCases()+r.NumCases() != l.NumCases() {
		t.Errorf("partition lost cases")
	}
}

func TestUnionDisjoint(t *testing.T) {
	l := demoLog(t)
	g, r := l.PartitionByCID("a")
	u, err := Union(g, r)
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if u.NumCases() != l.NumCases() || u.NumEvents() != l.NumEvents() {
		t.Errorf("union = %d cases / %d events, want %d / %d",
			u.NumCases(), u.NumEvents(), l.NumCases(), l.NumEvents())
	}
	if _, err := Union(l, l); err == nil {
		t.Errorf("self-union should fail on duplicate cases")
	}
}

func TestValidateDetectsDuplicateEvents(t *testing.T) {
	// The same event twice in one case: the paper notes this happens
	// when strace runs without -f, so two processes' records carry no
	// pid to tell them apart. The error names the case.
	e := Event{PID: 0, Call: "read", Start: time.Second, Dur: time.Millisecond, FP: "/f", Size: 1}
	id := CaseID{CID: "a", Host: "h", RID: 1}
	l := MustNewEventLog(NewCase(id, []Event{e, e}))
	err := l.Validate()
	if err == nil {
		t.Fatalf("Validate accepted duplicate events")
	}
	if !strings.Contains(err.Error(), id.String()) {
		t.Errorf("Validate error %q does not name case %s", err, id)
	}
}

// Equation (1)'s tuple includes the case identity, so two processes
// whose events agree in every per-event attribute are not duplicates.
func TestValidateAcceptsIdenticalEventsAcrossCases(t *testing.T) {
	e := Event{PID: 0, Call: "read", Start: time.Second, Dur: time.Millisecond, FP: "/f", Size: 1}
	l := MustNewEventLog(
		NewCase(CaseID{CID: "a", Host: "h", RID: 1}, []Event{e}),
		NewCase(CaseID{CID: "a", Host: "h", RID: 2}, []Event{e}),
	)
	if err := l.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateDetectsUnsorted(t *testing.T) {
	c := &Case{ID: CaseID{CID: "a", Host: "h", RID: 1}, Events: []Event{
		{Call: "x", Start: 2},
		{Call: "y", Start: 1},
	}}
	l := MustNewEventLog(c)
	if err := l.Validate(); err == nil {
		t.Errorf("Validate accepted unsorted case")
	}
}

func TestCallNamesAndTotals(t *testing.T) {
	l := demoLog(t)
	want := []string{"openat", "read", "write"}
	if got := l.CallNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("CallNames = %v, want %v", got, want)
	}
	if l.TotalDur() <= 0 {
		t.Errorf("TotalDur = %d, want > 0", l.TotalDur())
	}
}

// Property: Filter never changes event order within a case, and
// filter(p) ∘ filter(q) == filter(p ∧ q).
func TestFilterComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := func() *EventLog {
		nc := 1 + rng.Intn(4)
		var cases []*Case
		for i := 0; i < nc; i++ {
			ne := rng.Intn(30)
			evs := make([]Event, ne)
			for j := range evs {
				evs[j] = Event{
					PID:   100 + rng.Intn(3),
					Call:  []string{"read", "write", "openat", "lseek"}[rng.Intn(4)],
					Start: time.Duration(rng.Intn(1000)) * time.Millisecond,
					Dur:   time.Duration(rng.Intn(1000)) * time.Microsecond,
					FP:    []string{"/usr/lib/a", "/etc/b", "/scratch/c"}[rng.Intn(3)],
					Size:  int64(rng.Intn(100)) - 1,
				}
			}
			cases = append(cases, NewCase(CaseID{CID: "g", Host: "h", RID: i}, evs))
		}
		return MustNewEventLog(cases...)
	}
	p := func(e Event) bool { return e.Call == "read" || e.Call == "write" }
	q := func(e Event) bool { return e.FP == "/usr/lib/a" }
	for trial := 0; trial < 50; trial++ {
		l := gen()
		lhs := l.Filter(p).Filter(q)
		rhs := l.Filter(func(e Event) bool { return p(e) && q(e) })
		if lhs.NumEvents() != rhs.NumEvents() || lhs.NumCases() != rhs.NumCases() {
			t.Fatalf("filter composition mismatch: %d/%d vs %d/%d",
				lhs.NumCases(), lhs.NumEvents(), rhs.NumCases(), rhs.NumEvents())
		}
		for i, c := range lhs.Cases() {
			rc := rhs.Cases()[i]
			if !reflect.DeepEqual(c.Events, rc.Events) {
				t.Fatalf("filter composition differs in case %v", c.ID)
			}
		}
	}
}

// Property (testing/quick): partition is exact — every case lands in
// exactly one side regardless of the predicate.
func TestPartitionIsExact(t *testing.T) {
	f := func(seed int64, threshold uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var cases []*Case
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			cases = append(cases, NewCase(CaseID{CID: "c", Host: "h", RID: i}, nil))
		}
		l := MustNewEventLog(cases...)
		g, r := l.Partition(func(c *Case) bool { return uint8(c.ID.RID*37) < threshold })
		if g.NumCases()+r.NumCases() != l.NumCases() {
			return false
		}
		for _, c := range g.Cases() {
			if r.Case(c.ID) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
