package stats

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"stinspector/internal/iorsim"
	"stinspector/internal/pm"
	"stinspector/internal/race"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
)

// foldParts folds the corpus round-robin by case blocks into k partial
// computers, like the sharded fold engine.
func foldParts(k int) ([]*Computer, int) {
	el := synth.Log("span", 96, 60, 20240924)
	parts := make([]*Computer, k)
	for i := range parts {
		parts[i] = NewComputer(pm.CallTopDirs{Depth: 2})
	}
	for i, c := range el.Cases() {
		parts[(i/4)%k].Add(c)
	}
	return parts, el.NumEvents()
}

// assertSorted fails unless every accumulator is flagged sorted and its
// spans really are in (start, end) order.
func assertSorted(t *testing.T, c *Computer) {
	t.Helper()
	for y := range c.accs {
		ac := &c.accs[y]
		if ac.unsorted || !slices.IsSortedFunc(ac.spans, cmpSpan) {
			t.Fatalf("activity %d: spans not sorted (flag unsorted=%v)", y, ac.unsorted)
		}
	}
}

// Merging partials is a linear merge of sorted runs: the result is
// sorted, and gives the statistics of the sequential fold — whether the
// partials were sorted first or Merge sorted them.
func TestMergeSortedRuns(t *testing.T) {
	seqParts, _ := foldParts(1)
	want := serialize(seqParts[0].Finalize())
	for _, sortFirst := range []bool{false, true} {
		parts, _ := foldParts(4)
		if sortFirst {
			for _, p := range parts {
				p.Sort()
				assertSorted(t, p)
			}
		}
		acc := parts[0]
		for _, p := range parts[1:] {
			acc.Merge(p)
		}
		assertSorted(t, acc)
		if got := serialize(acc.Finalize()); got != want {
			t.Errorf("sortFirst=%v: merged stats differ from the sequential fold.\n--- merged ---\n%s--- sequential ---\n%s", sortFirst, got, want)
		}
	}
}

// TestSpanStateBytesPerEvent is the memory gate on the max-concurrency
// state: the spans an activity retains — counted by capacity times the
// element size, so growth slack and any field added to span count too —
// cost at most 32 bytes per folded event, after a sequential fold and
// after a 4-way sorted merge. A 16-byte span with append's at-most-2x
// growth fits; a case-tagged trace.Interval (56 bytes) cannot.
func TestSpanStateBytesPerEvent(t *testing.T) {
	const budget = 32.0
	retained := func(c *Computer) float64 {
		n := 0
		for y := range c.accs {
			n += cap(c.accs[y].spans)
		}
		return float64(n) * float64(unsafe.Sizeof(span{}))
	}
	seq, events := foldParts(1)
	seq[0].Sort()
	parts, _ := foldParts(4)
	for _, p := range parts {
		p.Sort()
	}
	for _, p := range parts[1:] {
		parts[0].Merge(p)
	}
	for name, c := range map[string]*Computer{"sequential": seq[0], "merged": parts[0]} {
		perEvent := retained(c) / float64(events)
		t.Logf("%s: %.1f B/event of span state", name, perEvent)
		if perEvent > budget {
			t.Errorf("%s: span state is %.1f B/event, over the %.0f B budget", name, perEvent, budget)
		}
	}
}

// Finalize on a sorted computer sweeps the spans where they are: it
// neither copies nor sorts them, so it allocates far less than the
// spans occupy. Skipped under -race (instrumented allocator).
func TestFinalizeSortedSweepsInPlace(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate skipped under -race")
	}
	parts, events := foldParts(1)
	c := parts[0]
	c.Sort()
	for y := range c.accs {
		ac := &c.accs[y]
		if s := ac.sortedSpans(); len(s) > 0 && &s[0] != &ac.spans[0] {
			t.Fatalf("activity %d: sortedSpans copied a sorted run", y)
		}
	}
	c.Finalize() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Finalize()
	runtime.ReadMemStats(&after)
	spanBytes := uint64(events) * uint64(unsafe.Sizeof(span{}))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Finalize allocated %d bytes over %d bytes of spans", got, spanBytes)
	if got > spanBytes/4 {
		t.Errorf("Finalize of a sorted computer allocated %d bytes; a copy of the spans alone is %d", got, spanBytes)
	}
	assertSorted(t, c)
}

// The v3 decoder keeps the sorted invariant: starts that descend (a
// wrapped delta), equal starts with descending ends, an end that
// overflows, and activities or accumulators out of order are all
// CorruptErrors.
func TestComputerSnapshotRejectsUnsorted(t *testing.T) {
	m := pm.CallTopDirs{Depth: 2}
	type span2 struct {
		delta uint64 // first span: ignored, start0 is 10
		dur   uint64
	}
	build := func(acts []string, accIdx []uint64, spans []span2) []byte {
		var b wire.Buf
		b.Dict(acts)
		b.Varint(0) // totalDur
		b.Uvarint(uint64(len(accIdx)))
		for _, y := range accIdx {
			b.Uvarint(y)
			b.Uvarint(uint64(len(spans))) // events
			b.Varint(0)                   // totalDur
			b.Varint(0)                   // bytes
			b.Bool(false)                 // hasBytes
			b.U64(0)                      // rate.hi
			b.U64(0)                      // rate.lo
			b.Uvarint(0)                  // rateCount
			b.Uvarint(uint64(len(spans)))
			for k, sp := range spans {
				if k == 0 {
					b.Varint(10)
				} else {
					b.Uvarint(sp.delta)
				}
				b.Uvarint(sp.dur)
			}
		}
		return b.Bytes()
	}
	ok := build([]string{"a", "b"}, []uint64{0, 1}, []span2{{0, 5}, {0, 7}, {3, 0}})
	if _, err := DecodeComputerSnapshot(ok, m); err != nil {
		t.Fatalf("well-formed section rejected: %v", err)
	}
	bad := map[string][]byte{
		"descending start":          build([]string{"a"}, []uint64{0}, []span2{{0, 5}, {^uint64(4), 5}}), // 10 → 5
		"equal start, end descends": build([]string{"a"}, []uint64{0}, []span2{{0, 5}, {0, 2}}),
		"end overflows":             build([]string{"a"}, []uint64{0}, []span2{{0, 1 << 63}}),
		"activities out of order":   build([]string{"b", "a"}, []uint64{0}, []span2{{0, 1}}),
		"duplicate activity":        build([]string{"a", "a"}, []uint64{0}, []span2{{0, 1}}),
		"accumulators out of order": build([]string{"a", "b"}, []uint64{1, 0}, []span2{{0, 1}}),
	}
	for name, data := range bad {
		var ce *wire.CorruptError
		if _, err := DecodeComputerSnapshot(data, m); !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want CorruptError", name, err)
		}
	}
}

// TestComputeBytesPerEvent is the allocation gate on the statistics
// path of the fold over a materialized log (the Inspector's), over an
// IOR-shaped log (shared file and file per process, write and read
// phases, the strace preamble): the log is mapped to activity symbols
// once (4 B/event), Reserve allocates each activity's spans at their
// exact size (16 B/event), and AddMapped, Sort and Finalize grow
// nothing, so everything stays under 24 B/event. Growing the spans by
// append allocates several times that. Skipped under -race
// (instrumented allocator).
func TestComputeBytesPerEvent(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate skipped under -race")
	}
	const budget = 24.0
	var logs []*trace.EventLog
	for i, cid := range []string{"ssf", "fpp"} {
		res, err := iorsim.Run(iorsim.Config{
			CID: cid, Ranks: 16, Hosts: 2,
			TransferSize: 256 << 10, BlockSize: 16 << 20, Segments: 8,
			Write: true, Read: true, FilePerProc: cid == "fpp", Preamble: true,
			Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, res.Log)
	}
	el := trace.MustUnion(logs...)
	m := pm.CallTopDirs{Depth: 2}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	computeLog(el, m) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	computeLog(el, m)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(el.NumEvents())
	t.Logf("statistics allocated %.1f B/event over %d events", perEvent, el.NumEvents())
	if perEvent > budget {
		t.Errorf("statistics allocated %.1f B/event, over the %.0f B budget", perEvent, budget)
	}
}
