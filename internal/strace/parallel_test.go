package strace

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// synthFS renders nFiles synthetic per-rank trace files into an
// in-memory filesystem, gzip-compressing every fourth file so the
// parallel path covers both encodings.
func synthFS(t testing.TB, nFiles, perFile int) (fstest.MapFS, int) {
	t.Helper()
	fsys := fstest.MapFS{}
	log := synth.Log("par", nFiles, perFile, 7)
	for f, c := range log.Cases() {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		name := c.ID.FileName()
		data := buf.Bytes()
		if f%4 == 3 {
			var gzBuf bytes.Buffer
			gw := gzip.NewWriter(&gzBuf)
			if _, err := gw.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			name += ".gz"
			data = gzBuf.Bytes()
		}
		fsys[name] = &fstest.MapFile{Data: data}
	}
	return fsys, log.NumEvents()
}

// logsEqual compares two event-logs case by case, event by event.
func logsEqual(t *testing.T, a, b *trace.EventLog) {
	t.Helper()
	if a.NumCases() != b.NumCases() {
		t.Fatalf("case count differs: %d vs %d", a.NumCases(), b.NumCases())
	}
	ac, bc := a.Cases(), b.Cases()
	for i := range ac {
		if ac[i].ID != bc[i].ID {
			t.Fatalf("case %d: id %s vs %s", i, ac[i].ID, bc[i].ID)
		}
		if !reflect.DeepEqual(ac[i].Events, bc[i].Events) {
			t.Fatalf("case %s: events differ", ac[i].ID)
		}
	}
}

// TestReadFSParallelMatchesSequential: the deterministic-merge guarantee.
// Every parallelism setting must produce the identical event-log.
func TestReadFSParallelMatchesSequential(t *testing.T) {
	fsys, _ := synthFS(t, 37, 50)
	seq, err := ReadFS(fsys, ".", Options{Strict: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 4, 16, 64} {
		par, err := ReadFS(fsys, ".", Options{Strict: true, Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		logsEqual(t, seq, par)
	}
}

// TestReadFSEmptyDir: no trace files is an error at every parallelism.
func TestReadFSEmptyDir(t *testing.T) {
	fsys := fstest.MapFS{"README.txt": &fstest.MapFile{Data: []byte("not a trace")}}
	for _, p := range []int{1, 8} {
		_, err := ReadFS(fsys, ".", Options{Parallelism: p})
		if err == nil || !strings.Contains(err.Error(), "no *.st") {
			t.Fatalf("Parallelism=%d: want 'no *.st' error, got %v", p, err)
		}
	}
}

// TestReadFSCorruptFileStrict: under Strict, every corrupt file is
// reported (multi-error), deterministically, at every parallelism.
func TestReadFSCorruptFileStrict(t *testing.T) {
	fsys, _ := synthFS(t, 24, 20)
	fsys["par_h0_900.st"] = &fstest.MapFile{Data: []byte("this is not strace output\n")}
	fsys["par_h0_901.st"] = &fstest.MapFile{Data: []byte("neither is this\n")}
	for _, p := range []int{1, 8} {
		_, err := ReadFS(fsys, ".", Options{Strict: true, Parallelism: p})
		if err == nil {
			t.Fatalf("Parallelism=%d: corrupt files not reported", p)
		}
		for _, name := range []string{"par_h0_900.st", "par_h0_901.st"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Parallelism=%d: error does not mention %s: %v", p, name, err)
			}
		}
	}
}

// TestReadFSCorruptFileLenient: without Strict, corrupt lines are
// skipped, so a garbage file degrades to an empty case instead of
// failing the whole ingestion.
func TestReadFSCorruptFileLenient(t *testing.T) {
	fsys, events := synthFS(t, 24, 20)
	fsys["par_h0_900.st"] = &fstest.MapFile{Data: []byte("this is not strace output\n")}
	seq, err := ReadFS(fsys, ".", Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReadFS(fsys, ".", Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, seq, par)
	if par.NumEvents() != events {
		t.Fatalf("lenient ingest: got %d events, want %d", par.NumEvents(), events)
	}
}

// TestReadFSBadGzipDeterministicError: a broken .st.gz is an I/O-level
// failure even in lenient mode; the reported error must name the first
// failing file in sorted order at every parallelism.
func TestReadFSBadGzipDeterministicError(t *testing.T) {
	fsys, _ := synthFS(t, 16, 20)
	fsys["par_h0_800.st.gz"] = &fstest.MapFile{Data: []byte("not gzip at all")}
	for _, p := range []int{1, 4, 16} {
		_, err := ReadFS(fsys, ".", Options{Parallelism: p})
		if err == nil || !strings.Contains(err.Error(), "par_h0_800.st.gz") {
			t.Fatalf("Parallelism=%d: want error naming par_h0_800.st.gz, got %v", p, err)
		}
	}
}

// TestReadFSTwoFailuresFirstWins: with two failing files, lenient mode
// must always report the one earlier in sorted order, even when a
// worker reaches the later one first in wall-clock time (regression
// test for the ordered delivery of the file workers).
func TestReadFSTwoFailuresFirstWins(t *testing.T) {
	fsys, _ := synthFS(t, 32, 10)
	// Sorted order places aa_... first and zz_... last.
	fsys["aa_h0_1.st.gz"] = &fstest.MapFile{Data: []byte("broken early")}
	fsys["zz_h0_9.st.gz"] = &fstest.MapFile{Data: []byte("broken late")}
	for i := 0; i < 50; i++ {
		_, err := ReadFS(fsys, ".", Options{Parallelism: 8})
		if err == nil || !strings.Contains(err.Error(), "aa_h0_1.st.gz") {
			t.Fatalf("run %d: want error naming aa_h0_1.st.gz (the first failure in sorted order), got %v", i, err)
		}
	}
}

// TestReadDirParallelSpeedup encodes the pipeline's performance goal: on
// a machine with at least 4 cores, parallel ingestion of a 200-file
// trace directory must be at least 2x faster than the sequential path.
// Single-core environments skip (there is no parallelism to exploit).
func TestReadDirParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the speedup gate, have %d", runtime.NumCPU())
	}
	fsys, events := synthFS(t, 200, 400)
	run := func(parallelism int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			log, err := ReadFS(fsys, ".", Options{Strict: true, Parallelism: parallelism})
			if err != nil {
				t.Fatal(err)
			}
			if log.NumEvents() != events {
				t.Fatalf("lost events: got %d, want %d", log.NumEvents(), events)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	run(0) // warm up pools and code paths
	seq := run(1)
	par := run(0)
	speedup := seq.Seconds() / par.Seconds()
	t.Logf("sequential %v, parallel %v (%d cores): %.2fx", seq, par, runtime.NumCPU(), speedup)
	if speedup < 2 {
		t.Errorf("parallel ReadFS speedup %.2fx, want >= 2x on %d cores", speedup, runtime.NumCPU())
	}
}
