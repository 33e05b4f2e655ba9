package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CaseID identifies a case: the combination of command identifier, host
// name and launching-process identifier that names one trace file
// (Figure 1 of the paper: "<cid>_<host>_<rid>.st").
type CaseID struct {
	CID  string
	Host string
	RID  int
}

// String renders the identifier using the paper's file naming convention
// without the ".st" suffix, for example "a_host1_9042".
func (id CaseID) String() string {
	return fmt.Sprintf("%s_%s_%d", id.CID, id.Host, id.RID)
}

// FileName returns the trace file name for this case, for example
// "a_host1_9042.st".
func (id CaseID) FileName() string { return id.String() + ".st" }

// Less imposes a deterministic total order on case identifiers
// (by CID, then Host, then RID).
func (id CaseID) Less(o CaseID) bool {
	if id.CID != o.CID {
		return id.CID < o.CID
	}
	if id.Host != o.Host {
		return id.Host < o.Host
	}
	return id.RID < o.RID
}

// MergeCaseIDs merges two CaseID lists by Less, taking from a first on
// ties; for ascending inputs the result is their ascending interleave.
// When b starts at or after a's last id — a later epoch merged into the
// history before it — that interleave is a plain append, so a is
// extended in place and the merge costs b, not a: callers pass an a
// they own. b is never aliased.
func MergeCaseIDs(a, b []CaseID) []CaseID {
	if len(a) == 0 || len(b) == 0 || !b[0].Less(a[len(a)-1]) {
		return append(a, b...)
	}
	out := make([]CaseID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Less(a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// ParseCaseID parses a trace file name of the form "<cid>_<host>_<rid>.st"
// (or the same without the suffix) into a CaseID. CID and Host may not
// contain underscores that would make the parse ambiguous: the last
// underscore-separated field is the RID and the first is the CID; any
// middle fields are joined back into the host name.
func ParseCaseID(name string) (CaseID, error) {
	base := strings.TrimSuffix(name, ".st")
	parts := strings.Split(base, "_")
	if len(parts) < 3 {
		return CaseID{}, fmt.Errorf("trace: file name %q does not match <cid>_<host>_<rid>[.st]", name)
	}
	rid, err := strconv.Atoi(parts[len(parts)-1])
	if err != nil {
		return CaseID{}, fmt.Errorf("trace: file name %q has non-numeric rid %q", name, parts[len(parts)-1])
	}
	return CaseID{
		CID:  parts[0],
		Host: strings.Join(parts[1:len(parts)-1], "_"),
		RID:  rid,
	}, nil
}

// Case is a group of events belonging to one trace file, arranged in
// non-decreasing order of their start timestamps (Equation (2)).
type Case struct {
	ID     CaseID
	Events []Event
}

// NewCase builds a case from events, stamping each event with the case
// identity and sorting by start time (stable, so ties preserve record
// order, as strace preserves the order of simultaneous events).
func NewCase(id CaseID, events []Event) *Case {
	c := &Case{ID: id, Events: append([]Event(nil), events...)}
	for i := range c.Events {
		c.Events[i].CID = id.CID
		c.Events[i].Host = id.Host
		c.Events[i].RID = id.RID
	}
	c.Sort()
	return c
}

// Sort re-establishes the non-decreasing start-time order of the case.
func (c *Case) Sort() {
	sort.SliceStable(c.Events, func(i, j int) bool {
		return c.Events[i].Start < c.Events[j].Start
	})
}

// Sorted reports whether the events are in non-decreasing start order.
func (c *Case) Sorted() bool {
	for i := 1; i < len(c.Events); i++ {
		if c.Events[i].Start < c.Events[i-1].Start {
			return false
		}
	}
	return true
}

// Len returns the number of events in the case.
func (c *Case) Len() int { return len(c.Events) }

// Clone returns a deep copy of the case.
func (c *Case) Clone() *Case {
	return &Case{ID: c.ID, Events: append([]Event(nil), c.Events...)}
}

// Filter returns a new case holding only the events for which keep returns
// true. Relative order is preserved.
func (c *Case) Filter(keep func(Event) bool) *Case {
	out := &Case{ID: c.ID}
	for _, e := range c.Events {
		if keep(e) {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Span returns the first start and last end timestamp of the case. The
// second return value is false when the case is empty.
func (c *Case) Span() (Interval, bool) {
	if len(c.Events) == 0 {
		return Interval{}, false
	}
	iv := Interval{Start: c.Events[0].Start, End: c.Events[0].End(), Case: c.ID}
	for _, e := range c.Events[1:] {
		if e.End() > iv.End {
			iv.End = e.End()
		}
	}
	return iv, true
}
