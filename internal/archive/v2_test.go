package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
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
		if err := writeV2(&f, want); err != nil {
			t.Fatalf("seed %d: writeV2: %v", seed, err)
		}
		r, err := newReaderBytes(f.Bytes())
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

// writeV2 output must be byte-for-byte reproducible: the dictionary is
// assigned in first-use order, a pure function of content.
func TestV2Reproducible(t *testing.T) {
	log := randLog(5, 5, 60)
	var a, b bytes.Buffer
	if err := writeV2(&a, log); err != nil {
		t.Fatal(err)
	}
	if err := writeV2(&b, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("writeV2 not reproducible for the same log")
	}
}

// The incremental writer and the one-shot form must produce identical
// bytes for the same case sequence.
func TestV2IncrementalMatchesOneShot(t *testing.T) {
	log := randLog(6, 7, 50)
	var oneshot, incr bytes.Buffer
	if err := writeV2(&oneshot, log); err != nil {
		t.Fatal(err)
	}
	vw := newV2Writer(&incr)
	for _, c := range log.Cases() {
		if err := vw.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneshot.Bytes(), incr.Bytes()) {
		t.Fatal("incremental v2Writer bytes differ from writeV2")
	}
	if err := vw.Finish(); err == nil {
		t.Fatal("second Finish succeeded")
	}
	if err := vw.Add(log.Cases()[0]); err == nil {
		t.Fatal("Add after Finish succeeded")
	}
}

// The writer rejects a case whose events are out of start order, and a
// case that does not come strictly after the previous one in CaseID
// order: one stored twice, or one that sorts before its predecessor.
func TestV2UnsortedCaseRejected(t *testing.T) {
	id := func(cid string) trace.CaseID { return trace.CaseID{CID: cid, Host: "h", RID: 1} }
	a := trace.NewCase(id("a"), []trace.Event{{Call: "read", Start: 1}})
	b := trace.NewCase(id("b"), []trace.Event{{Call: "read", Start: 1}})
	for name, cases := range map[string][]*trace.Case{
		"unsorted events": {{ID: id("a"), Events: []trace.Event{{Call: "read", Start: 10}, {Call: "write", Start: 5}}}},
		"duplicate case":  {a, a},
		"reversed cases":  {b, a},
	} {
		vw := newV2Writer(io.Discard)
		last := len(cases) - 1
		for _, c := range cases[:last] {
			if err := vw.Add(c); err != nil {
				t.Fatalf("%s: %s: %v", name, c.ID, err)
			}
		}
		if err := vw.Add(cases[last]); err == nil {
			t.Errorf("%s: %s accepted", name, cases[last].ID)
		}
	}
}

// The reader checks the index order instead of assuming it: an image
// whose index holds a case twice, or lists cases out of CaseID order,
// is corrupt, so Stream can never deliver a case twice or out of
// canonical order.
func TestV2ReaderRejectsIndexOrder(t *testing.T) {
	a := trace.NewCase(trace.CaseID{CID: "a", Host: "h", RID: 1}, []trace.Event{{Call: "read", Start: 1}})
	b := trace.NewCase(trace.CaseID{CID: "b", Host: "h", RID: 1}, []trace.Event{{Call: "write", Start: 2}})
	for name, edit := range map[string]func(es []indexEntry) []indexEntry{
		"duplicate": func(es []indexEntry) []indexEntry { return append(es, es[0]) },
		"reversed":  func(es []indexEntry) []indexEntry { return []indexEntry{es[1], es[0]} },
	} {
		// Build the image through the writer, then edit its index
		// before Finish checksums it.
		var f bytes.Buffer
		vw := newV2Writer(&f)
		for _, c := range []*trace.Case{a, b} {
			if err := vw.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		vw.entries = edit(vw.entries)
		if err := vw.Finish(); err != nil {
			t.Fatal(err)
		}
		_, err := newReaderBytes(f.Bytes())
		var ce *wire.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: opened with %v, want a *wire.CorruptError", name, err)
		}
	}
}

// Bytes after the last index entry are corruption even when the index
// checksum covers them: the junk sits between the index and the footer,
// whose offsets do not move, and the footer's index CRC is recomputed.
func TestV2ReaderRejectsTrailingIndexBytes(t *testing.T) {
	var f bytes.Buffer
	if err := writeV2(&f, randLog(3, 5, 20)); err != nil {
		t.Fatal(err)
	}
	data := f.Bytes()
	if _, err := newReaderBytes(data); err != nil {
		t.Fatalf("the unedited image: %v", err)
	}
	body, foot := data[:len(data)-footerSize], data[len(data)-footerSize:]
	indexOffset, _ := wire.NewCursor(foot[8:16]).U64()
	for _, junk := range [][]byte{{0}, {0x01, 0x02, 0x03}, bytes.Repeat([]byte{0xff}, 9)} {
		img := append(append([]byte(nil), body...), junk...)
		var crc wire.Buf
		crc.U32(wire.Checksum(img[indexOffset:]))
		edited := append([]byte(nil), foot...)
		copy(edited[16:20], crc.Bytes())
		img = append(img, edited...)
		_, err := newReaderBytes(img)
		var ce *wire.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%d junk bytes after the index: opened with %v, want a *wire.CorruptError", len(junk), err)
		}
	}
}

func TestV2EmptyLog(t *testing.T) {
	log := trace.MustNewEventLog()
	var f bytes.Buffer
	if err := writeV2(&f, log); err != nil {
		t.Fatal(err)
	}
	r, err := newReaderBytes(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCases() != 0 {
		t.Fatalf("empty archive reports %d cases", r.NumCases())
	}
	got, err := readAll(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCases() != 0 {
		t.Fatalf("empty archive decoded %d cases", got.NumCases())
	}
}

// Open must behave identically to newReader on the same file whether or
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
	if err := writeV2(&f, want); err != nil {
		t.Fatal(err)
	}
	r, err := newReaderBytes(f.Bytes())
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
	// A one-case range is positional random access over the same index;
	// a position outside the archive clamps to an empty range.
	for i := range all {
		src := r.StreamRange(i, i+1, 1, 1)
		c, err := src.Next()
		src.Close()
		if err != nil {
			t.Fatalf("StreamRange(%d, %d): %v", i, i+1, err)
		}
		if c.ID != all[i].ID {
			t.Fatalf("StreamRange(%d, %d) = %s, want %s", i, i+1, c.ID, all[i].ID)
		}
	}
	for _, i := range []int{-1, len(all), len(all) + 5} {
		src := r.StreamRange(i, i+1, 1, 1)
		if c, err := src.Next(); err != io.EOF {
			t.Fatalf("StreamRange(%d, %d) = %v, %v; want io.EOF", i, i+1, c, err)
		}
		src.Close()
	}
}

// Arbitrary corruption of a valid v2 archive must never panic and never
// silently succeed with wrong data: every region is checksummed.
func TestV2ReaderRobustnessUnderMutation(t *testing.T) {
	log := randLog(78, 4, 60)
	var f bytes.Buffer
	if err := writeV2(&f, log); err != nil {
		t.Fatal(err)
	}
	orig := f.Bytes()
	want, err := func() (*trace.EventLog, error) {
		r, err := newReaderBytes(orig)
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
		r, err := newReaderBytes(mut)
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
	if err := writeV2(&f, log); err != nil {
		t.Fatal(err)
	}
	orig := f.Bytes()
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), orig...)
			mut[i] ^= 1 << bit
			r, err := newReaderBytes(mut)
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
	if err := writeV2(&f, log); err != nil {
		t.Fatal(err)
	}
	orig := f.Bytes()
	for n := 0; n < len(orig); n++ {
		r, err := newReaderBytes(orig[:n])
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
		r, err := newReaderBytes(blob)
		if err != nil {
			continue
		}
		_, _ = readAll(r, 0)
	}
}

// TestOpenSourceOptions: the path-level source honours every option —
// a case range (open ends, empty, and out-of-bounds rejection), decode
// parallelism and window.
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
}

// Every string of a decoded case is the process-wide string table's
// canonical copy: the reader resolves its dictionary through the table
// once, so readers of one vocabulary retain one string per value. Equal
// strings share one allocation across cases, across both readers and
// across two decodes of the archive from separate byte copies, which a
// dictionary that skipped the table could not give.
func TestDecodedStringsCanonical(t *testing.T) {
	var f bytes.Buffer
	if err := writeV2(&f, randLog(3, 4, 50)); err != nil {
		t.Fatal(err)
	}
	first := map[string]*byte{} // value → the allocation first decoded
	shared := func(s string) bool {
		if s == "" {
			return true
		}
		p, ok := first[s]
		if !ok {
			first[s] = unsafe.StringData(s)
			return true
		}
		return p == unsafe.StringData(s)
	}
	cache := intern.CacheFor(nil)
	defer intern.PutCache(cache)
	for _, rd := range []struct {
		name string
		open func([]byte) (*Reader, error)
	}{{"zero-copy", newReaderBytes}, {"ReadAt", newReaderAt}} {
		for pass := range 2 {
			name := fmt.Sprintf("%s/%d", rd.name, pass)
			r, err := rd.open(bytes.Clone(f.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := source.Drain(r.Stream(1, 1), false)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range got.Cases() {
				if !shared(c.ID.CID) || !shared(c.ID.Host) {
					t.Errorf("%s: case %s: identity strings do not share one allocation", name, c.ID)
				}
				for _, e := range c.Events {
					if !shared(e.Call) || !shared(e.FP) {
						t.Fatalf("%s: case %s: event strings %q, %q do not share one allocation", name, c.ID, e.Call, e.FP)
					}
				}
			}
		}
	}
	for s, p := range first {
		if p != unsafe.StringData(cache.Canon(s)) {
			t.Errorf("%q is not the table's copy", s)
		}
	}
}
