package stinspector

// The memory-regression gate of the streaming layer: ingesting the
// 256-rank synth set through the streaming path must hold at most a
// quarter of the live heap the in-memory path peaks at. The in-memory
// path necessarily retains O(trace) — every parsed event — while the
// streaming path retains O(window); if this ratio degrades, someone
// made the stream accumulate.

import (
	"bytes"
	"runtime"
	"testing"
	"testing/fstest"

	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// liveHeap forces a collection and reports the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// synthTraceFS renders nFiles synthetic per-rank trace files into an
// in-memory filesystem (no disk noise).
func synthTraceFS(tb testing.TB, nFiles, perFile int) fstest.MapFS {
	tb.Helper()
	fsys := fstest.MapFS{}
	el := synthLog(nFiles*perFile, nFiles, 16, 11)
	for _, c := range el.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			tb.Fatal(err)
		}
		fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
	}
	return fsys
}

func TestStreamIngestMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement")
	}
	const nFiles, perFile = 256, 400
	fsys := synthTraceFS(t, nFiles, perFile)
	opts := strace.Options{Strict: true, Parallelism: 4, Window: 8}

	// In-memory path: the whole event-log is live at once.
	base := liveHeap()
	src, err := strace.StreamFS(fsys, ".", opts)
	if err != nil {
		t.Fatal(err)
	}
	el, err := source.Drain(src, opts.Strict)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	inMemPeak := liveHeap() - base
	if el.NumCases() != nFiles {
		t.Fatalf("in-memory ingest: %d cases, want %d", el.NumCases(), nFiles)
	}
	runtime.KeepAlive(el)
	el = nil

	// Streaming path: consume and drop, sampling the live heap as the
	// stream advances; the peak sample bounds what ingestion keeps
	// resident.
	base = liveHeap()
	src, err = strace.StreamFS(fsys, ".", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var streamPeak uint64
	events, cases := 0, 0
	err = source.Walk(src, true, func(c *trace.Case) error {
		cases++
		events += c.Len()
		if cases%16 == 0 {
			if h := liveHeap() - base; h > streamPeak {
				streamPeak = h
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := liveHeap() - base; h > streamPeak {
		streamPeak = h
	}
	if cases != nFiles || events != nFiles*perFile {
		t.Fatalf("streaming ingest: %d cases / %d events, want %d / %d", cases, events, nFiles, nFiles*perFile)
	}

	t.Logf("peak live heap: in-memory %.2f MB, streaming %.2f MB (%.1fx), peak resident cases %d",
		float64(inMemPeak)/1e6, float64(streamPeak)/1e6,
		float64(inMemPeak)/float64(streamPeak), source.PeakResident(src))
	if streamPeak*4 > inMemPeak {
		t.Errorf("streaming ingest peaked at %d B live, more than 1/4 of the in-memory path's %d B",
			streamPeak, inMemPeak)
	}
	if peak := source.PeakResident(src); peak > opts.Window {
		t.Errorf("peak resident cases %d exceeds window %d", peak, opts.Window)
	}
}
