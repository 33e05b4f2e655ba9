package strace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/race"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// TestParseAllocBudget is the parse-side allocation-regression gate of
// the symbol-interning refactor: ParseCase over a realistic mixed-call
// trace must stay under a fixed allocations-per-event ceiling. The
// pre-interning implementation sat near 5 allocs/event (line copy,
// timestamp SplitN, per-record Args slices, unquote copies); the
// interned, arena-backed parser runs near 1.1 — the line copy plus
// amortized slice growth. The ceiling is set at 2 to leave headroom
// for pool variance (a GC empties the framer pool) without ever
// letting the old behaviour back in. The budget holds over both symbol-table modes: the
// process-wide Default (warm pooled caches) and a scoped per-pass
// table, whose caches are deliberately stripped when pooled — the
// per-file map rebuild is a handful of allocations amortized over
// thousands of events. Skipped under -race: the detector's
// instrumented allocator makes the count meaningless.
//
// The heap bytes per event are bounded too, at 200: the line copy, the
// 64-byte event and nothing else of size per event. Events that carried
// their case identity (104 B) and a case constructor that copied them
// allocated 311.
func TestParseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const events = 4000
	const bytesBudget = 200
	var buf bytes.Buffer
	w := NewWriter(&buf)
	id := trace.CaseID{CID: "alloc", Host: "h", RID: 1}
	calls := []string{"openat", "read", "pwrite64", "lseek", "close", "fsync"}
	paths := []string{"/usr/lib/x86_64-linux-gnu/libselinux.so.1", "/p/scratch/u/ssf/testfile", "/etc/ld.so.cache"}
	for i := 0; i < events; i++ {
		w.writeEvent(trace.Event{
			PID:   9000 + i%3,
			Call:  calls[i%len(calls)],
			Start: time.Duration(i) * time.Millisecond,
			Dur:   50 * time.Microsecond,
			FP:    paths[i%len(paths)],
			Size:  4096,
		})
	}
	if err := w.err; err != nil {
		t.Fatal(err)
	}
	data := buf.String()

	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"default-table", Options{}},
		{"scoped-table", Options{Syms: intern.NewTable()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			// Warm the interner and the pools so the measurement
			// reflects the steady state the ingestion workers run in.
			if _, err := ParseCase(id, strings.NewReader(data), mode.opts); err != nil {
				t.Fatal(err)
			}

			avg, heap := allocsAndBytes(10, func() {
				c, err := ParseCase(id, strings.NewReader(data), mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				if c.Len() != events {
					t.Fatalf("parsed %d events, want %d", c.Len(), events)
				}
			})
			perEvent := avg / events
			t.Logf("ParseCase (%s): %.0f allocs for %d events = %.3f allocs/event, %.0f B/event",
				mode.name, avg, events, perEvent, heap/events)
			if perEvent > 2.0 {
				t.Errorf("allocs/event = %.3f, budget 2.0 — the zero-alloc parse path regressed", perEvent)
			}
			if heap/events > bytesBudget {
				t.Errorf("%.0f B/event, budget %d — the parsed case is bigger than its events", heap/events, bytesBudget)
			}
		})
	}

	// The live path runs the same pooled framer, so FollowReader meets
	// the same ceiling and allocates about the bytes ParseCase does on
	// the same input (scoped table, as a live session uses it). A live
	// path that does not pool its buffer, records and argument arena
	// allocates several times ParseCase's bytes, which the 1.5x bound
	// catches; the count alone does not.
	t.Run("follow-reader", func(t *testing.T) {
		opts := Options{Syms: intern.NewTable()}
		_, parseBytes := allocsAndBytes(10, func() {
			if _, err := ParseCase(id, strings.NewReader(data), opts); err != nil {
				t.Fatal(err)
			}
		})
		allocs, followBytes := allocsAndBytes(10, func() {
			c, dropped, err := FollowReader(id, strings.NewReader(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.Len() != events || dropped != 0 {
				t.Fatalf("followed %d events, %d dropped; want %d, 0", c.Len(), dropped, events)
			}
		})
		perEvent := allocs / events
		t.Logf("FollowReader: %.3f allocs/event, %.0f B/event (ParseCase %.0f B/event)",
			perEvent, followBytes/events, parseBytes/events)
		if perEvent > 2.0 {
			t.Errorf("allocs/event = %.3f, budget 2.0 — the live parse path regressed", perEvent)
		}
		if followBytes > 1.5*parseBytes {
			t.Errorf("FollowReader allocates %.0f B/event, over 1.5x ParseCase's %.0f", followBytes/events, parseBytes/events)
		}
	})
}

// allocsAndBytes reports the average allocations and heap bytes of one
// call of f, measured like testing.AllocsPerRun: one warm-up call, then
// runs calls at GOMAXPROCS 1.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestParseAllocBudgetProfiles extends the parse-side allocation gate
// from the friendly synth shape to the adversarial generator profiles:
// a Zipf vocabulary (heavytail) and pathological quoted/escaped
// argument strings (hostileargs) must not reopen a per-event
// allocation path. Measured steady state sits near 1.1 allocs/event
// for both — the same line-copy cost as the friendly shape — so both
// share the recorded 2.0 ceiling. Skipped under -race (instrumented
// allocator).
func TestParseAllocBudgetProfiles(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, name := range []string{"heavytail", "hostileargs"} {
		p, ok := profiles.Lookup(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		log := p.Generate("allocp", 2, 2000, 3)
		type renderedCase struct {
			id   trace.CaseID
			data string
		}
		var cs []renderedCase
		events := 0
		for _, c := range log.Cases() {
			var buf bytes.Buffer
			if err := NewWriter(&buf).WriteCase(c); err != nil {
				t.Fatal(err)
			}
			cs = append(cs, renderedCase{c.ID, buf.String()})
			events += c.Len()
		}

		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"default-table", Options{Strict: true}},
			{"scoped-table", Options{Strict: true, Syms: intern.NewTable()}},
		} {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				parseAll := func() {
					for _, c := range cs {
						got, err := ParseCase(c.id, strings.NewReader(c.data), mode.opts)
						if err != nil {
							t.Fatal(err)
						}
						if got.Len() != log.Case(c.id).Len() {
							t.Fatalf("case %s: parsed %d events, want %d", c.id, got.Len(), log.Case(c.id).Len())
						}
					}
				}
				parseAll() // warm the interner and pools
				avg := testing.AllocsPerRun(10, parseAll)
				perEvent := avg / float64(events)
				t.Logf("ParseCase (%s, %s): %.0f allocs for %d events = %.3f allocs/event",
					name, mode.name, avg, events, perEvent)
				if perEvent > 2.0 {
					t.Errorf("allocs/event = %.3f, budget 2.0 — hostile inputs reopened a per-event allocation path", perEvent)
				}
			})
		}
	}
}

// TestBehaviorAllocBudget is the allocation gate for the semantic
// decoding layer: parsing the behavior profile — whose call mix routes
// every record through the sockaddr, argv and dirfd-join decoders —
// must hold the same 2.0 allocs/event ceiling as the plain I/O path.
// The decoders build derived paths into per-parser scratch buffers and
// intern through the string table, so steady state measures near the
// usual 1.1 (line copy plus amortized growth); a regression here means
// a decoder started allocating per event. Skipped under -race
// (instrumented allocator).
func TestBehaviorAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, ok := profiles.Lookup("behavior")
	if !ok {
		t.Fatal("behavior profile missing")
	}
	log := p.Generate("allocb", 2, 2000, 5)
	type renderedCase struct {
		id   trace.CaseID
		data string
	}
	var cs []renderedCase
	events := 0
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, renderedCase{c.ID, buf.String()})
		events += c.Len()
	}

	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"default-table", Options{Strict: true}},
		{"scoped-table", Options{Strict: true, Syms: intern.NewTable()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			parseAll := func() {
				for _, c := range cs {
					got, err := ParseCase(c.id, strings.NewReader(c.data), mode.opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Len() != log.Case(c.id).Len() {
						t.Fatalf("case %s: parsed %d events, want %d", c.id, got.Len(), log.Case(c.id).Len())
					}
				}
			}
			parseAll() // warm the interner and pools
			avg := testing.AllocsPerRun(10, parseAll)
			perEvent := avg / float64(events)
			t.Logf("ParseCase (behavior, %s): %.0f allocs for %d events = %.3f allocs/event",
				mode.name, avg, events, perEvent)
			if perEvent > 2.0 {
				t.Errorf("allocs/event = %.3f, budget 2.0 — the semantic decoders opened a per-event allocation path", perEvent)
			}
		})
	}
}
