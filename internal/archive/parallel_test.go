package archive

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"stinspector/internal/trace"
)

// TestReadAllParallelEquivalence: concurrent section decode returns the
// identical event-log for every worker count.
func TestReadAllParallelEquivalence(t *testing.T) {
	cases := make([]*trace.Case, 20)
	for i := range cases {
		evs := make([]trace.Event, 50)
		for j := range evs {
			evs[j] = trace.Event{
				PID:   900 + i,
				Call:  []string{"read", "write"}[j%2],
				Start: time.Duration(j) * time.Millisecond,
				Dur:   time.Duration(10+j) * time.Microsecond,
				FP:    fmt.Sprintf("/arc/case%d/f%d", i, j%4),
				Size:  int64(j * 17),
			}
		}
		cases[i] = trace.NewCase(trace.CaseID{CID: "arc", Host: "h", RID: i}, evs)
	}
	el := trace.MustNewEventLog(cases...)
	var buf bytes.Buffer
	if err := WriteV2(&buf, el); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	decode := func(parallelism int) *trace.EventLog {
		t.Helper()
		r, err := newReaderAt(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAll(r, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := decode(1)
	for _, p := range []int{0, 2, 7, 32} {
		got := decode(p)
		if got.NumCases() != want.NumCases() {
			t.Fatalf("parallelism=%d: %d cases, want %d", p, got.NumCases(), want.NumCases())
		}
		gc, wc := got.Cases(), want.Cases()
		for i := range gc {
			if gc[i].ID != wc[i].ID || !reflect.DeepEqual(gc[i].Events, wc[i].Events) {
				t.Fatalf("parallelism=%d: case %d differs", p, i)
			}
		}
	}
}

// TestReadAllParallelCorruptSection: a corrupt case section fails the
// decode deterministically at every worker count.
func TestReadAllParallelCorruptSection(t *testing.T) {
	cases := make([]*trace.Case, 8)
	for i := range cases {
		cases[i] = trace.NewCase(trace.CaseID{CID: "arc", Host: "h", RID: i}, []trace.Event{
			{PID: 1, Call: "read", Start: time.Millisecond, Dur: time.Microsecond, FP: "/f", Size: 4},
		})
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, trace.MustNewEventLog(cases...)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte early in the file: inside some case section, before the
	// dictionary and index (which sit at the end).
	data[20] ^= 0xff
	r, err := newReaderAt(data)
	if err != nil {
		t.Fatalf("corruption in a case section rejected at open: %v", err)
	}
	var msgs []string
	for _, p := range []int{1, 4} {
		_, err := readAll(r, p)
		if err == nil {
			t.Fatalf("parallelism=%d: corrupt section not detected", p)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error differs across parallelism: %q vs %q", msgs[0], msgs[1])
	}
}
