package trace

import (
	"fmt"
	"sort"
	"strings"
)

// EventLog is a set of cases, C = {c1, ..., cn} in the paper's notation.
// Cases are kept in a deterministic order (sorted by CaseID) so that every
// downstream artifact — activity logs, DFGs, rendered output — is
// reproducible run to run.
type EventLog struct {
	cases []*Case
	byID  map[CaseID]*Case
}

// NewEventLog builds an event-log from the given cases. Adding two cases
// with the same identity is an error, mirroring the paper's requirement
// that each trace file is a unique case.
func NewEventLog(cases ...*Case) (*EventLog, error) {
	l := &EventLog{byID: make(map[CaseID]*Case, len(cases))}
	for _, c := range cases {
		if err := l.Add(c); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// MustNewEventLog is NewEventLog for statically known inputs; it panics on
// duplicate case identities.
func MustNewEventLog(cases ...*Case) *EventLog {
	l, err := NewEventLog(cases...)
	if err != nil {
		panic(err)
	}
	return l
}

// Add inserts a case into the log, keeping the deterministic order.
func (l *EventLog) Add(c *Case) error {
	if c == nil {
		return fmt.Errorf("trace: nil case")
	}
	if l.byID == nil {
		l.byID = make(map[CaseID]*Case)
	}
	if _, dup := l.byID[c.ID]; dup {
		return fmt.Errorf("trace: duplicate case %s", c.ID)
	}
	l.byID[c.ID] = c
	i := sort.Search(len(l.cases), func(i int) bool { return !l.cases[i].ID.Less(c.ID) })
	l.cases = append(l.cases, nil)
	copy(l.cases[i+1:], l.cases[i:])
	l.cases[i] = c
	return nil
}

// Cases returns the cases in deterministic (CaseID) order. The slice must
// not be mutated by the caller.
func (l *EventLog) Cases() []*Case { return l.cases }

// Case returns the case with the given identity, or nil.
func (l *EventLog) Case(id CaseID) *Case { return l.byID[id] }

// NumCases returns the number of cases in the log.
func (l *EventLog) NumCases() int { return len(l.cases) }

// NumEvents returns the total number of events across all cases.
func (l *EventLog) NumEvents() int {
	n := 0
	for _, c := range l.cases {
		n += len(c.Events)
	}
	return n
}

// Events calls fn for every event in the log, case by case in
// deterministic order, events in start order within each case.
func (l *EventLog) Events(fn func(Event)) {
	for _, c := range l.cases {
		for _, e := range c.Events {
			fn(e)
		}
	}
}

// Clone returns a deep copy of the event-log.
func (l *EventLog) Clone() *EventLog {
	out := &EventLog{byID: make(map[CaseID]*Case, len(l.cases))}
	for _, c := range l.cases {
		cc := c.Clone()
		out.cases = append(out.cases, cc)
		out.byID[cc.ID] = cc
	}
	return out
}

// Filter returns a new event-log holding, for every case, only the events
// for which keep returns true. Cases that end up empty are dropped, so
// that the filtered log contains no degenerate traces.
func (l *EventLog) Filter(keep func(Event) bool) *EventLog {
	out := &EventLog{byID: make(map[CaseID]*Case)}
	for _, c := range l.cases {
		fc := c.Filter(keep)
		if len(fc.Events) == 0 {
			continue
		}
		out.cases = append(out.cases, fc)
		out.byID[fc.ID] = fc
	}
	return out
}

// FilterPath is the paper's event-log query "apply_fp_filter": it keeps
// only the events whose file path contains the given substring.
func (l *EventLog) FilterPath(substr string) *EventLog {
	return l.Filter(func(e Event) bool { return strings.Contains(e.FP, substr) })
}

// FilterCalls keeps only events whose Call is one of the given names,
// mirroring the strace -e option applied after the fact.
func (l *EventLog) FilterCalls(calls ...string) *EventLog {
	set := make(map[string]bool, len(calls))
	for _, c := range calls {
		set[c] = true
	}
	return l.Filter(func(e Event) bool { return set[e.Call] })
}

// Partition splits the log into two mutually exclusive sub-logs (G, R)
// according to the case predicate: cases for which green returns true go
// to the first log, all others to the second. This is step (a) of the
// partition-based coloring of Section IV-C.
func (l *EventLog) Partition(green func(*Case) bool) (*EventLog, *EventLog) {
	g := &EventLog{byID: make(map[CaseID]*Case)}
	r := &EventLog{byID: make(map[CaseID]*Case)}
	for _, c := range l.cases {
		dst := r
		if green(c) {
			dst = g
		}
		dst.cases = append(dst.cases, c)
		dst.byID[c.ID] = c
	}
	return g, r
}

// PartitionByCID partitions the log by command identifier: cases whose CID
// is in cids become the green subset. The paper's Equation (18) partitions
// C_x into G_x = C_a and R_x = C_b this way.
func (l *EventLog) PartitionByCID(cids ...string) (*EventLog, *EventLog) {
	set := make(map[string]bool, len(cids))
	for _, c := range cids {
		set[c] = true
	}
	return l.Partition(func(c *Case) bool { return set[c.ID.CID] })
}

// Union merges several event-logs into a new one, for example
// C_x = C_a ∪ C_b in Equation (3). Case identities must be disjoint.
func Union(logs ...*EventLog) (*EventLog, error) {
	out := &EventLog{byID: make(map[CaseID]*Case)}
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, c := range l.cases {
			if err := out.Add(c); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MustUnion is Union that panics on duplicate case identities.
func MustUnion(logs ...*EventLog) *EventLog {
	out, err := Union(logs...)
	if err != nil {
		panic(err)
	}
	return out
}

// Validate checks the structural invariants of the event-log: every
// case is sorted by start time, and no two events in the whole log are
// exactly identical (the paper's uniqueness requirement on E). An
// event's full Equation (1) tuple is its case ID paired with its
// attributes, so events of different cases never collide.
func (l *EventLog) Validate() error {
	type tuple struct {
		id CaseID
		e  Event
	}
	seen := make(map[tuple]struct{}, l.NumEvents())
	for _, c := range l.cases {
		if !c.Sorted() {
			return fmt.Errorf("trace: case %s is not sorted by start time", c.ID)
		}
		for _, e := range c.Events {
			k := tuple{c.ID, e}
			if _, dup := seen[k]; dup {
				return fmt.Errorf("trace: duplicate event in case %s: %v (was the trace recorded without -f?)", c.ID, e)
			}
			seen[k] = struct{}{}
		}
	}
	return nil
}

// CallNames returns the sorted set of distinct system call names occurring
// in the log.
func (l *EventLog) CallNames() []string {
	set := make(map[string]bool)
	l.Events(func(e Event) { set[e.Call] = true })
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// TotalDur returns the sum of Dur over all events.
func (l *EventLog) TotalDur() (d int64) {
	l.Events(func(e Event) { d += int64(e.Dur) })
	return d
}
