package trace

import (
	"reflect"
	"testing"
	"time"
)

func TestParseCaseID(t *testing.T) {
	tests := []struct {
		name    string
		want    CaseID
		wantErr bool
	}{
		{name: "a_host1_9042.st", want: CaseID{CID: "a", Host: "host1", RID: 9042}},
		{name: "b_host1_9157", want: CaseID{CID: "b", Host: "host1", RID: 9157}},
		{name: "ior_jwc00n012_77423.st", want: CaseID{CID: "ior", Host: "jwc00n012", RID: 77423}},
		{name: "x_node_a_42.st", want: CaseID{CID: "x", Host: "node_a", RID: 42}}, // underscore in host
		{name: "nounderscore.st", wantErr: true},
		{name: "a_host.st", wantErr: true},
		{name: "a_host_notanumber.st", wantErr: true},
	}
	for _, tc := range tests {
		got, err := ParseCaseID(tc.name)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseCaseID(%q) = %v, want error", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCaseID(%q): %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseCaseID(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCaseIDRoundTrip(t *testing.T) {
	id := CaseID{CID: "a", Host: "host1", RID: 9042}
	got, err := ParseCaseID(id.FileName())
	if err != nil {
		t.Fatalf("ParseCaseID(%q): %v", id.FileName(), err)
	}
	if got != id {
		t.Errorf("round trip = %v, want %v", got, id)
	}
}

func TestCaseIDLess(t *testing.T) {
	ids := []CaseID{
		{CID: "a", Host: "h1", RID: 2},
		{CID: "a", Host: "h1", RID: 1},
		{CID: "b", Host: "h1", RID: 0},
		{CID: "a", Host: "h2", RID: 0},
	}
	// a_h1_1 < a_h1_2 < a_h2_0 < b_h1_0
	order := []CaseID{ids[1], ids[0], ids[3], ids[2]}
	for i := 0; i+1 < len(order); i++ {
		if !order[i].Less(order[i+1]) {
			t.Errorf("%v should be < %v", order[i], order[i+1])
		}
		if order[i+1].Less(order[i]) {
			t.Errorf("%v should not be < %v", order[i+1], order[i])
		}
	}
	if ids[0].Less(ids[0]) {
		t.Errorf("Less must be irreflexive")
	}
}

// NewCase takes ownership of its events: it sorts them in place and
// keeps the slice, and an empty slice becomes nil, as the archive
// decoder builds an empty case.
func TestNewCaseOwnsAndSorts(t *testing.T) {
	id := CaseID{CID: "a", Host: "host1", RID: 7}
	events := []Event{
		{PID: 1, Call: "write", Start: 3 * time.Second},
		{PID: 1, Call: "read", Start: 1 * time.Second},
		{PID: 1, Call: "openat", Start: 2 * time.Second},
	}
	c := NewCase(id, events)
	if !c.Sorted() {
		t.Fatalf("NewCase did not sort")
	}
	wantCalls := []string{"read", "openat", "write"}
	for i, e := range c.Events {
		if e.Call != wantCalls[i] {
			t.Errorf("event %d = %s, want %s", i, e.Call, wantCalls[i])
		}
	}
	if c.ID != id {
		t.Errorf("case identity = %v, want %v", c.ID, id)
	}
	if &c.Events[0] != &events[0] {
		t.Errorf("NewCase copied its events instead of taking ownership")
	}
	for _, in := range [][]Event{nil, {}, make([]Event, 0, 8)} {
		if e := NewCase(id, in).Events; e != nil {
			t.Errorf("NewCase(%d-cap empty slice).Events = %#v, want nil", cap(in), e)
		}
	}
}

func TestNewCaseStableTies(t *testing.T) {
	id := CaseID{CID: "a", Host: "h", RID: 1}
	ts := time.Second
	c := NewCase(id, []Event{
		{PID: 1, Call: "first", Start: ts},
		{PID: 1, Call: "second", Start: ts},
		{PID: 1, Call: "third", Start: ts},
	})
	want := []string{"first", "second", "third"}
	for i, e := range c.Events {
		if e.Call != want[i] {
			t.Errorf("tie order violated at %d: got %s", i, e.Call)
		}
	}
}

func TestCaseFilter(t *testing.T) {
	id := CaseID{CID: "a", Host: "h", RID: 1}
	c := NewCase(id, []Event{
		{Call: "read", Start: 1, FP: "/usr/lib/x.so"},
		{Call: "write", Start: 2, FP: "/dev/pts/7"},
		{Call: "read", Start: 3, FP: "/usr/lib/y.so"},
	})
	f := c.Filter(func(e Event) bool { return e.Call == "read" })
	if f.Len() != 2 {
		t.Fatalf("filtered len = %d, want 2", f.Len())
	}
	if c.Len() != 3 {
		t.Errorf("filter mutated original")
	}
	if f.Events[0].FP != "/usr/lib/x.so" || f.Events[1].FP != "/usr/lib/y.so" {
		t.Errorf("filter broke order: %v", f.Events)
	}
}

func TestCaseClone(t *testing.T) {
	id := CaseID{CID: "a", Host: "h", RID: 1}
	c := NewCase(id, []Event{{Call: "read", Start: 1}})
	cl := c.Clone()
	cl.Events[0].Call = "mutated"
	if c.Events[0].Call != "read" {
		t.Errorf("Clone shares event storage")
	}
}

// MergeCaseIDs interleaves ascending lists, takes the append path when
// b follows a, and never lets the result alias b.
func TestMergeCaseIDs(t *testing.T) {
	ids := func(rids ...int) []CaseID {
		var out []CaseID
		for _, r := range rids {
			out = append(out, CaseID{CID: "c", Host: "h", RID: r})
		}
		return out
	}
	for _, tc := range []struct{ a, b, want []int }{
		{[]int{1, 3, 5}, []int{2, 3, 6}, []int{1, 2, 3, 3, 5, 6}},
		{[]int{1, 2}, []int{2, 4}, []int{1, 2, 2, 4}},
		{nil, []int{1}, []int{1}},
		{[]int{1}, nil, []int{1}},
	} {
		got := MergeCaseIDs(ids(tc.a...), ids(tc.b...))
		if !reflect.DeepEqual(got, ids(tc.want...)) {
			t.Errorf("MergeCaseIDs(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	for _, a := range [][]CaseID{ids(1), ids(5)} { // append path, interleave
		b := ids(2, 3)
		out := MergeCaseIDs(a, b)
		for i := range out {
			out[i].RID = -1
		}
		if !reflect.DeepEqual(b, ids(2, 3)) {
			t.Errorf("result aliases b: %v", b)
		}
	}
}
