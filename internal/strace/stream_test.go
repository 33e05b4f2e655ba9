package strace

import (
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"stinspector/internal/source"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// TestStreamFSMatchesReadFS: draining the stream reproduces the
// sequential drain for every parallelism/window combination.
func TestStreamFSMatchesReadFS(t *testing.T) {
	fsys, nEvents := synthFS(t, 23, 40)
	want, err := readFS(fsys, ".", Options{Strict: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.NumEvents() != nEvents {
		t.Fatalf("sequential ingest: %d events, want %d", want.NumEvents(), nEvents)
	}
	for _, p := range []int{1, 3, 8} {
		for _, w := range []int{0, 1, 5} {
			src, err := StreamFS(fsys, ".", Options{Strict: true, Parallelism: p, Window: w})
			if err != nil {
				t.Fatal(err)
			}
			got, err := source.Drain(src, true)
			src.Close()
			if err != nil {
				t.Fatalf("p=%d w=%d: %v", p, w, err)
			}
			logsEqual(t, want, got)
		}
	}
}

// TestStreamFSDeliversCaseOrder: cases arrive in CaseID order — the
// canonical event-log order — not directory or file-name order.
func TestStreamFSDeliversCaseOrder(t *testing.T) {
	fsys, _ := synthFS(t, 19, 10)
	src, err := StreamFS(fsys, ".", Options{Strict: true, Parallelism: 4, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var prev trace.CaseID
	first := true
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !first && !prev.Less(c.ID) {
			t.Fatalf("case %s delivered after %s", c.ID, prev)
		}
		prev, first = c.ID, false
	}
}

// TestStreamFSAbandonLeaksNothing is the regression test for the
// abandoned-consumer leak: in lenient mode, walking away from a stream
// after a few cases and calling Close must wind down every parser
// goroutine (Close blocks until they exit) and release every file
// handle (each worker owns its file for exactly the duration of its
// parse). Goroutines are counted via the runtime, file handles via
// /proc/self/fd where available.
func TestStreamFSAbandonLeaksNothing(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(dir, synth.Log("leak", 48, 60, 3)); err != nil {
		t.Fatal(err)
	}
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // not Linux; goroutine accounting still applies
		}
		return len(ents)
	}

	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs()
	for trial := 0; trial < 8; trial++ {
		src, err := StreamDir(dir, Options{Parallelism: 6, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(); err != source.ErrClosed {
			t.Fatalf("Next after Close: want ErrClosed, got %v", err)
		}
	}

	var goroutinesAfter int
	for i := 0; i < 100; i++ {
		goroutinesAfter = runtime.NumGoroutine()
		if goroutinesAfter <= goroutinesBefore {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if goroutinesAfter > goroutinesBefore {
		t.Errorf("parser goroutines leaked: %d before, %d after 8 abandoned streams",
			goroutinesBefore, goroutinesAfter)
	}
	if fdsBefore >= 0 {
		if fdsAfter := countFDs(); fdsAfter > fdsBefore {
			t.Errorf("file handles leaked: %d before, %d after (see /proc/self/fd)", fdsBefore, fdsAfter)
		}
	}
}
