package stinspector

// The retention gate of the symbol-scoping layer, the companion of
// TestStreamIngestMemory: a scoped ingestion pass over a trace set
// whose path vocabulary is unbounded (every event its own distinct
// path) must (a) leave the process-wide intern.Default untouched,
// (b) land the vocabulary in the pass's scoped table, and (c) make
// that table — and with it every string the pass interned — garbage
// once the pass's results are dropped. Collectability is proven two
// ways: a finalizer on the table must fire, and the sampled live heap
// must fall back toward the pre-pass baseline.

import (
	"bytes"
	"runtime"
	"testing"
	"testing/fstest"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

func TestScopedSymsRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement")
	}
	// 64 files × 600 events, every event a distinct path: 38400 paths
	// of ~35 bytes — megabytes of strings plus table overhead, far
	// above measurement noise.
	const nFiles, perFile = 64, 600
	log := synth.WideLog("wide", nFiles, perFile, 3)
	fsys := fstest.MapFS{}
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
	}

	defaultSyms0 := intern.Default.Len()
	base := liveHeap()
	collected := make(chan struct{})

	// The pass runs inside a closure so nothing — options struct,
	// source, cases, table — survives it on the test's stack. Deltas
	// are signed: a post-drop heap below the baseline is success, not
	// underflow.
	var withTable int64
	func() {
		st := NewSymbolTable()
		runtime.SetFinalizer(st, func(*SymbolTable) { close(collected) })
		src, err := strace.StreamFS(fsys, ".", ParseOptions{Strict: true, Parallelism: 4, Window: 8, Syms: st})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		events := 0
		err = source.Walk(src, true, func(c *trace.Case) error {
			events += c.Len()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if events != nFiles*perFile {
			t.Fatalf("scoped ingest dropped events: got %d, want %d", events, nFiles*perFile)
		}
		// The unbounded vocabulary landed in the scoped table...
		if st.Len() < nFiles*perFile {
			t.Fatalf("scoped table holds %d symbols, want >= %d distinct paths", st.Len(), nFiles*perFile)
		}
		withTable = int64(liveHeap()) - int64(base)
	}()

	// ...and not in the process-wide one.
	if got := intern.Default.Len(); got != defaultSyms0 {
		t.Errorf("scoped pass grew intern.Default: %d -> %d symbols", defaultSyms0, got)
	}

	// Dropping the pass's results must make the table collectable: the
	// finalizer fires once nothing — pooled parse caches included —
	// references it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
		default:
			if time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			t.Fatal("scoped symbol table never collected after the pass was dropped")
		}
		break
	}

	// Heap sampling: with the table dead, the live heap falls back
	// toward the baseline. The bound is deliberately loose (half of the
	// with-table footprint) — the point is that megabytes of interned
	// strings are gone, not an exact byte count.
	after := int64(liveHeap()) - int64(base)
	t.Logf("live heap over baseline: %.2f MB with scoped table, %.2f MB after drop (%d symbols)",
		float64(withTable)/1e6, float64(after)/1e6, nFiles*perFile)
	if after > withTable/2 {
		t.Errorf("live heap %d B after dropping the pass, more than half the with-table %d B — the scoped vocabulary is still resident",
			after, withTable)
	}
}
