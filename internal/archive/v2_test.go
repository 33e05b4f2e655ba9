package archive

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/trace"
)

func TestV2RoundTripFile(t *testing.T) {
	want := randLog(1, 6, 200)
	path := filepath.Join(t.TempDir(), "log.sta2")
	if err := WriteFileV2(path, want); err != nil {
		t.Fatalf("WriteFileV2: %v", err)
	}
	src, err := OpenSource(path, Options{})
	if err != nil {
		t.Fatalf("OpenSource: %v", err)
	}
	defer src.Close()
	got, err := source.Drain(src, false)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	logsEqual(t, got, want)
}

func TestV2RoundTripPropertyMany(t *testing.T) {
	for seed := int64(2); seed < 22; seed++ {
		want := randLog(seed, 1+int(seed)%5, 80)
		var f bytes.Buffer
		if err := WriteV2(&f, want); err != nil {
			t.Fatalf("seed %d: WriteV2: %v", seed, err)
		}
		r, err := NewReaderBytes(f.Bytes())
		if err != nil {
			t.Fatalf("seed %d: NewReaderBytes: %v", seed, err)
		}
		got, err := readAll(r, 0)
		if err != nil {
			t.Fatalf("seed %d: ReadAll: %v", seed, err)
		}
		logsEqual(t, got, want)
	}
}

// WriteV2 output must be byte-for-byte reproducible: the dictionary is
// assigned in first-use order, a pure function of content.
func TestV2Reproducible(t *testing.T) {
	log := randLog(5, 5, 60)
	var a, b bytes.Buffer
	if err := WriteV2(&a, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(&b, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteV2 not reproducible for the same log")
	}
}

// The incremental writer and the one-shot form must produce identical
// bytes for the same case sequence.
func TestV2IncrementalMatchesOneShot(t *testing.T) {
	log := randLog(6, 7, 50)
	var oneshot, incr bytes.Buffer
	if err := WriteV2(&oneshot, log); err != nil {
		t.Fatal(err)
	}
	vw := NewV2Writer(&incr)
	for _, c := range log.Cases() {
		if err := vw.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneshot.Bytes(), incr.Bytes()) {
		t.Fatal("incremental V2Writer bytes differ from WriteV2")
	}
	if err := vw.Finish(); err == nil {
		t.Fatal("second Finish succeeded")
	}
	if err := vw.Add(log.Cases()[0]); err == nil {
		t.Fatal("Add after Finish succeeded")
	}
}

func TestV2UnsortedCaseRejected(t *testing.T) {
	c := &trace.Case{ID: trace.CaseID{CID: "a", Host: "h", RID: 1}, Events: []trace.Event{
		{Call: "read", Start: 10}, {Call: "write", Start: 5},
	}}
	vw := NewV2Writer(io.Discard)
	if err := vw.Add(c); err == nil {
		t.Fatal("unsorted case accepted")
	}
}

func TestV2EmptyLog(t *testing.T) {
	log := trace.MustNewEventLog()
	var f bytes.Buffer
	if err := WriteV2(&f, log); err != nil {
		t.Fatal(err)
	}
	r, err := NewReaderBytes(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCases() != 0 || r.NumEvents() != 0 {
		t.Fatalf("empty archive reports %d cases / %d events", r.NumCases(), r.NumEvents())
	}
	got, err := readAll(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCases() != 0 {
		t.Fatalf("empty archive decoded %d cases", got.NumCases())
	}
}

// Open must behave identically to NewReader on the same file whether or
// not the platform managed to mmap it — same cases, same events.
func TestV2OpenMatchesReadAt(t *testing.T) {
	want := randLog(9, 6, 80)
	path := filepath.Join(t.TempDir(), "log.sta2")
	if err := WriteFileV2(path, want); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := readAll(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, got, want)

	// Force the ReadAt fallback on the same image.
	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.data != nil {
		if err := f2.unmap(); err != nil {
			t.Fatal(err)
		}
		f2.data, f2.unmap = nil, nil
	}
	got2, err := readAll(f2, 4)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, got2, want)
}

func TestV2CaseRangeSlicing(t *testing.T) {
	want := randLog(11, 9, 40)
	var f bytes.Buffer
	if err := WriteV2(&f, want); err != nil {
		t.Fatal(err)
	}
	r, err := NewReaderBytes(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	all := want.Cases()
	for _, rng := range [][2]int{{0, 9}, {0, 0}, {3, 3}, {2, 7}, {8, 9}, {0, 1}, {-2, 99}, {5, 2}} {
		a, b := rng[0], rng[1]
		wa, wb := a, b
		if wa < 0 {
			wa = 0
		}
		if wb > len(all) {
			wb = len(all)
		}
		if wa > wb {
			wa = wb
		}
		for _, par := range []int{1, 3} {
			src := r.StreamRange(a, b, par, 2)
			var got []*trace.Case
			for {
				c, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("range [%d,%d) par %d: %v", a, b, par, err)
				}
				got = append(got, c)
			}
			src.Close()
			if len(got) != wb-wa {
				t.Fatalf("range [%d,%d) par %d: %d cases, want %d", a, b, par, len(got), wb-wa)
			}
			for i, c := range got {
				wc := all[wa+i]
				if c.ID != wc.ID {
					t.Fatalf("range [%d,%d) case %d: ID %s, want %s", a, b, i, c.ID, wc.ID)
				}
				if !reflect.DeepEqual(c.Events, wc.Events) {
					t.Fatalf("range [%d,%d) case %s: events differ", a, b, c.ID)
				}
			}
		}
	}
	// ReadCaseAt is positional random access over the same index.
	for i := range all {
		c, err := r.ReadCaseAt(i)
		if err != nil {
			t.Fatalf("ReadCaseAt(%d): %v", i, err)
		}
		if c.ID != all[i].ID {
			t.Fatalf("ReadCaseAt(%d) = %s, want %s", i, c.ID, all[i].ID)
		}
	}
	for _, i := range []int{-1, len(all), len(all) + 5} {
		if _, err := r.ReadCaseAt(i); err == nil {
			t.Fatalf("ReadCaseAt(%d) succeeded", i)
		}
	}
}

// Scoped decode: binding a table must intern the whole dictionary into
// it, decode identical events, and rebinding must rebuild the remap.
func TestV2ScopedSyms(t *testing.T) {
	want := randLog(13, 4, 60)
	var f bytes.Buffer
	if err := WriteV2(&f, want); err != nil {
		t.Fatal(err)
	}
	r, err := NewReaderBytes(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	scoped := intern.NewTable()
	r.SetSyms(scoped)
	got, err := readAll(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, got, want)
	if scoped.Len() < r.dict.Len() {
		t.Fatalf("scoped table holds %d symbols, dictionary has %d", scoped.Len(), r.dict.Len())
	}

	// Rebind to a second table: decodes must still be correct and the
	// second table must now hold the vocabulary too.
	scoped2 := intern.NewTable()
	r.SetSyms(scoped2)
	got2, err := readAll(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, got2, want)
	if scoped2.Len() < r.dict.Len() {
		t.Fatalf("rebound table holds %d symbols, dictionary has %d", scoped2.Len(), r.dict.Len())
	}
}

// Arbitrary corruption of a valid v2 archive must never panic and never
// silently succeed with wrong data: every region is checksummed.
func TestV2ReaderRobustnessUnderMutation(t *testing.T) {
	log := randLog(78, 4, 60)
	var f bytes.Buffer
	if err := WriteV2(&f, log); err != nil {
		t.Fatal(err)
	}
	orig := f.Bytes()
	want, err := func() (*trace.EventLog, error) {
		r, err := NewReaderBytes(orig)
		if err != nil {
			return nil, err
		}
		return readAll(r, 0)
	}()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))

	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), orig...)
		mutated := false
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch rng.Intn(3) {
			case 0: // flip
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
				mutated = true
			case 1: // truncate
				if len(mut) > 1 {
					mut = mut[:rng.Intn(len(mut))]
					mutated = true
				}
			case 2: // extend with junk
				mut = append(mut, byte(rng.Intn(256)))
			}
		}
		r, err := NewReaderBytes(mut)
		if err != nil {
			continue
		}
		got, err := readAll(r, 0)
		if err != nil || !mutated {
			continue
		}
		// A mutation that still decodes fully must have been confined to
		// unreachable bytes: the content must be unchanged.
		logsEqual(t, got, want)
	}
}

// Every single-bit flip of a small valid v2 archive must be detected
// (or, if it lands in unreachable bytes, decode to identical content).
func TestV2BitFlipSweep(t *testing.T) {
	log := randLog(41, 3, 25)
	var f bytes.Buffer
	if err := WriteV2(&f, log); err != nil {
		t.Fatal(err)
	}
	orig := f.Bytes()
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), orig...)
			mut[i] ^= 1 << bit
			r, err := NewReaderBytes(mut)
			if err != nil {
				continue
			}
			got, err := readAll(r, 0)
			if err != nil {
				continue
			}
			logsEqual(t, got, log)
		}
	}
}

// Truncation at every byte boundary must fail at open or read — the
// footer-anchored layout cannot mistake a prefix for a whole file.
func TestV2TruncationSweep(t *testing.T) {
	log := randLog(42, 3, 25)
	var f bytes.Buffer
	if err := WriteV2(&f, log); err != nil {
		t.Fatal(err)
	}
	orig := f.Bytes()
	for n := 0; n < len(orig); n++ {
		r, err := NewReaderBytes(orig[:n])
		if err != nil {
			continue
		}
		if _, err := readAll(r, 0); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(orig))
		}
	}
}

func TestV2RandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(400)
		blob := make([]byte, n)
		rng.Read(blob)
		if n >= 8 && trial%3 == 0 {
			copy(blob, magic)
			blob[4], blob[5], blob[6], blob[7] = version, 0, 0, 0
		}
		if n >= footerSize && trial%5 == 0 {
			copy(blob[n-4:], footerMagic)
		}
		r, err := NewReaderBytes(blob)
		if err != nil {
			continue
		}
		_, _ = readAll(r, 0)
	}
}

// TestOpenSourceOptions: the path-level source honours every option —
// a case range (open ends, empty, and out-of-bounds rejection), decode
// parallelism and window, and a scoped symbol table that keeps the
// archive's strings out of intern.Default.
func TestOpenSourceOptions(t *testing.T) {
	want := randLog(14, 7, 30)
	path := filepath.Join(t.TempDir(), "opts.sta")
	if err := WriteFileV2(path, want); err != nil {
		t.Fatal(err)
	}
	all := want.Cases()
	for _, rg := range []CaseRange{{0, -1}, {0, 7}, {2, 5}, {3, -1}, {4, 4}, {7, 7}} {
		end := rg.End
		if end < 0 {
			end = len(all)
		}
		src, err := OpenSource(path, Options{Parallelism: 3, Window: 2, Cases: &rg})
		if err != nil {
			t.Fatalf("range %v: %v", rg, err)
		}
		got, err := source.Drain(src, false)
		src.Close()
		if err != nil {
			t.Fatalf("range %v: %v", rg, err)
		}
		logsEqual(t, got, trace.MustNewEventLog(all[rg.Start:end]...))
	}
	for _, rg := range []CaseRange{{-1, 2}, {0, 8}, {5, 2}, {8, -1}} {
		if src, err := OpenSource(path, Options{Cases: &rg}); err == nil {
			src.Close()
			t.Errorf("range %v accepted for %d cases", rg, len(all))
		}
	}

	// A scoped pass over a vocabulary unique to this test interns it
	// into its own table and leaves Default untouched.
	var cases []*trace.Case
	for i, c := range all {
		evs := append([]trace.Event(nil), c.Events...)
		for j := range evs {
			evs[j].FP = fmt.Sprintf("/open-source-options/%d/%d", i, j)
		}
		cases = append(cases, trace.NewCase(c.ID, evs))
	}
	unique := trace.MustNewEventLog(cases...)
	upath := filepath.Join(t.TempDir(), "unique.sta")
	if err := WriteFileV2(upath, unique); err != nil {
		t.Fatal(err)
	}
	tab := intern.NewTable()
	d0 := intern.Default.Len()
	src, err := OpenSource(upath, Options{Syms: tab})
	if err != nil {
		t.Fatal(err)
	}
	got, err := source.Drain(src, false)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, got, unique)
	if intern.Default.Len() != d0 {
		t.Errorf("scoped decode grew Default: %d -> %d", d0, intern.Default.Len())
	}
	if tab.Len() < unique.NumEvents() {
		t.Errorf("scoped table holds %d symbols, want at least the %d unique paths", tab.Len(), unique.NumEvents())
	}
}
