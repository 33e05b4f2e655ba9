package dxt

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestStreamParallelEquivalence: concurrent case construction is
// deterministic for every worker count.
func TestStreamParallelEquivalence(t *testing.T) {
	var records []Record
	for rank := 0; rank < 13; rank++ {
		for seg := 0; seg < 40; seg++ {
			records = append(records, Record{
				Module:   "X_POSIX",
				Rank:     rank,
				Hostname: fmt.Sprintf("node%02d", rank%4),
				FileName: "/p/scratch/u/ssf/test",
				IsWrite:  seg%2 == 0,
				Segment:  seg,
				Offset:   int64(seg) * 1048576,
				Length:   1048576,
				Start:    time.Duration(seg) * time.Millisecond,
				End:      time.Duration(seg)*time.Millisecond + 400*time.Microsecond,
			})
		}
	}
	want := drain(t, "dxt", records, 1)
	for _, p := range []int{0, 3, 16} {
		got := drain(t, "dxt", records, p)
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
