// Package profiles names the adversarial and heavy-tail workload
// generators of the scenario matrix. Where internal/synth models the
// paper's well-behaved per-rank I/O shape, each profile here models one
// hostile production shape the ROADMAP's service must survive: a
// heavy-tailed path vocabulary (symbol-table stress), deep concurrency
// bursts (max-concurrency heap stress), pathological argument strings
// (parser stress, drawn from and feeding the strace fuzz corpus), an
// unbounded per-event vocabulary (retention stress), and interleaved
// multi-tenant sessions with disjoint vocabularies (the stserve shape).
//
// Every profile is a pure function of (profile, cid, nCases, perCase,
// seed): the same tuple yields the byte-identical event-log — and
// therefore byte-identical strace text, STA archive and DXT dump — on
// every machine, so the scenario matrix (TestScenarioMatrix in cmd/stbench)
// and its committed BENCH_matrix.json baseline are reproducible. Generated
// events carry a transfer size only for read/write variants and stay at
// microsecond resolution, so a write-to-strace-text → ParseCase round
// trip reproduces the log exactly, event for event.
package profiles

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"stinspector/internal/trace"
)

// Profile is one named workload generator of the scenario matrix.
type Profile struct {
	// Name identifies the profile in -profile/-matrix flags and in
	// BENCH_matrix.json rows.
	Name string
	// Desc is the one-line description -list-profiles prints.
	Desc string
	gen  func(cid string, nCases, perCase int, seed int64) *trace.EventLog
}

// Generate builds the profile's event-log: nCases cases of perCase
// events each, named by cid. The same (profile, cid, nCases, perCase,
// seed) always yields the identical log.
func (p Profile) Generate(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	return p.gen(cid, nCases, perCase, seed)
}

// registry holds the profiles in their canonical (matrix row) order.
var registry = []Profile{
	{
		Name: "baseline",
		Desc: "the paper's well-behaved shape: small cyclic path vocabulary, sequential bursts",
		gen:  baseline,
	},
	{
		Name: "heavytail",
		Desc: "Zipf/power-law path vocabulary: few very hot paths over a long one-hit tail (symbol-table stress)",
		gen:  heavytail,
	},
	{
		Name: "burst",
		Desc: "deep synchronized concurrency waves across all cases (max-concurrency interval-heap stress)",
		gen:  burst,
	},
	{
		Name: "hostileargs",
		Desc: "pathological path strings — quotes, escapes, delimiters, unicode, long names (parser stress)",
		gen:  hostileargs,
	},
	{
		Name: "widevocab",
		Desc: "every event touches its own distinct file: unbounded vocabulary (retention stress, generalizes synth.WideLog)",
		gen:  widevocab,
	},
	{
		Name: "multitenant",
		Desc: "interleaved per-tenant sessions with disjoint path vocabularies (the stserve shape)",
		gen:  multitenant,
	},
	{
		Name: "behavior",
		Desc: "file-lifecycle, spawn and connect mix driving the semantic decoders (behavior-profile stress)",
		gen:  behaviorMix,
	},
}

// All returns every profile in canonical order. The slice is fresh;
// callers may reorder it.
func All() []Profile {
	return append([]Profile(nil), registry...)
}

// Names returns the profile names in canonical order.
func Names() []string {
	names := make([]string, len(registry))
	for i, p := range registry {
		names[i] = p.Name
	}
	return names
}

// Lookup resolves a profile by name.
func Lookup(name string) (Profile, bool) {
	for _, p := range registry {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// transferCalls and ioCalls mirror the strace extraction defaults
// (strace.TransferCalls / strace.IOCalls) without importing the
// package: profiles must stay importable from internal/strace tests.
// Restricting generation to these call names means a profile's log
// survives ParseCase with default Options without dropping events.
func isTransfer(call string) bool {
	switch call {
	case "read", "write", "pread64", "pwrite64":
		return true
	}
	return false
}

// ioCalls is the call mix profiles cycle through; every entry is in
// strace.IOCalls.
var ioCalls = []string{"openat", "read", "write", "pread64", "pwrite64", "lseek", "fsync", "close"}

// sizeFor draws a transfer size for transfer calls and returns
// trace.SizeUnknown otherwise, so rendered strace text parses back to
// the identical event (non-transfer records carry no size).
func sizeFor(rng *rand.Rand, call string) int64 {
	if !isTransfer(call) {
		return trace.SizeUnknown
	}
	return int64(rng.Intn(1 << 18))
}

// generate is the case/event scaffolding shared by the profiles: id
// names case c, ev fills in event i of case c from the shared rng.
// Cases are generated in index order from one rng stream, so the log is
// a pure function of the inputs. NewCase sorts each case by start time.
func generate(cid string, nCases, perCase int, seed int64, id func(c int) trace.CaseID, ev func(rng *rand.Rand, c, i int) trace.Event) *trace.EventLog {
	rng := rand.New(rand.NewSource(seed))
	cases := make([]*trace.Case, nCases)
	for c := 0; c < nCases; c++ {
		evs := make([]trace.Event, perCase)
		for i := range evs {
			evs[i] = ev(rng, c, i)
		}
		cases[c] = trace.NewCase(id(c), evs)
	}
	return trace.MustNewEventLog(cases...)
}

// hostID is the default case naming: hosts cycle h0..h3 as in
// synth.Log, RID = case index.
func hostID(cid string) func(c int) trace.CaseID {
	return func(c int) trace.CaseID {
		return trace.CaseID{CID: cid, Host: fmt.Sprintf("h%d", c%4), RID: c}
	}
}

// baseline is the paper's friendly shape — synth.Log's model with
// round-trip-exact sizes — included so the scenario matrix carries the
// reference row the hostile profiles are compared against.
func baseline(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	return generate(cid, nCases, perCase, seed, hostID(cid), func(rng *rand.Rand, c, i int) trace.Event {
		call := ioCalls[(c+i)%len(ioCalls)]
		start := time.Duration(i*1500+rng.Intn(1500)) * time.Microsecond
		return trace.Event{
			PID:   4000 + c,
			Call:  call,
			Start: start,
			Dur:   time.Duration(5+rng.Intn(400)) * time.Microsecond,
			FP:    fmt.Sprintf("/scratch/job/rank%03d/part%02d.bin", c, i%8),
			Size:  sizeFor(rng, call),
		}
	})
}

// HeavytailTopDirs bounds the top-2 path components of the heavytail
// vocabulary: ranks map into this many /zipf/dNN/ directories, so
// CallTopDirs-style activity mappings stay bounded while the full path
// vocabulary (and therefore the string table) grows with the tail.
const HeavytailTopDirs = 16

// heavytail draws every path from a Zipf(s=1.2) rank distribution over
// a vocabulary as large as the whole log: a handful of paths absorb
// most events while the tail is full of paths seen once — the shape
// that stresses the string table's growth path and the
// per-path memoization in the analysis fold. The histogram invariant
// (top ranks dominate, a long one-hit tail exists) is property-tested.
func heavytail(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	total := nCases * perCase
	if total < 1 {
		total = 1
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(total-1)+1)
	return generate(cid, nCases, perCase, seed+1, hostID(cid), func(rng *rand.Rand, c, i int) trace.Event {
		call := ioCalls[(c+i)%len(ioCalls)]
		rank := zipf.Uint64()
		start := time.Duration(i*1200+rng.Intn(1200)) * time.Microsecond
		return trace.Event{
			PID:   5000 + c,
			Call:  call,
			Start: start,
			Dur:   time.Duration(5+rng.Intn(300)) * time.Microsecond,
			FP:    fmt.Sprintf("/zipf/d%02d/f%08d.dat", rank%HeavytailTopDirs, rank),
			Size:  sizeFor(rng, call),
		}
	})
}

// burstWave is the number of events per concurrency wave within one
// case: every wave's events overlap each other and, because waves are
// scheduled on a shared clock, overlap the same wave of every other
// case.
const burstWave = 8

// BurstDepth is the concurrency the burst profile guarantees: at the
// crest of each wave at least this many intervals are simultaneously
// open across the whole log. The property test checks the generated
// intervals actually reach it.
func BurstDepth(nCases, perCase int) int {
	w := perCase
	if w > burstWave {
		w = burstWave
	}
	if nCases < 1 || w < 1 {
		return 0
	}
	return nCases * w
}

// burst schedules events in synchronized waves: within wave w, event j
// of every case opens at waveStart + j·10µs and stays open past the
// crest at waveStart + 1ms, so all nCases × min(perCase, burstWave)
// intervals overlap there. Long equal-start, equal-end interval pileups
// are exactly what the max-concurrency sweep's end-heap has to absorb.
func burst(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	const (
		slot  = 10 * time.Microsecond
		crest = time.Millisecond
		span  = 4 * time.Millisecond // wave period; > crest + jitter so waves stay disjoint
	)
	return generate(cid, nCases, perCase, seed, hostID(cid), func(rng *rand.Rand, c, i int) trace.Event {
		wave := i / burstWave
		j := i % burstWave
		call := ioCalls[(c+j)%len(ioCalls)]
		start := time.Duration(wave)*span + time.Duration(j)*slot
		// Every interval must cover the crest; the jitter beyond it
		// varies the end order so the heap sees both equal and distinct
		// end times.
		dur := crest - time.Duration(j)*slot + time.Duration(rng.Intn(200))*time.Microsecond
		return trace.Event{
			PID:   6000 + c,
			Call:  call,
			Start: start,
			Dur:   dur,
			FP:    fmt.Sprintf("/burst/rank%03d/w%03d.bin", c, wave%8),
			Size:  sizeFor(rng, call),
		}
	})
}

// hostileSegments is the pathological path vocabulary: every entry is a
// complete file path exercising one parser hazard — quotes and
// backslash escapes inside the quoted openat argument, delimiters
// (commas, spaces, tabs, parentheses, brackets, braces, angle pairs)
// inside fd-path annotations, strace-grammar lookalikes, unicode, and
// an oversized name. Each one survives the writer → ParseCase round
// trip byte-exactly (the round-trip property test enforces this), and
// the same strings seed the FuzzParseCase corpus.
var hostileSegments = []string{
	"/hostile/sp ace/with,comma.bin",
	// Quotes must come in unescaped pairs: strace's own argument
	// grammar cannot represent a path whose fd annotation carries an
	// odd number of quotes (the rest of the record reads as string
	// body), so that shape is unparseable by construction, not a
	// parser bug. Paired quotes are fair game.
	"/hostile/qu\"ote\"pair/dou\"\"ble.bin",
	"/hostile/back\\slash/dou\\\\ble.bin",
	"/hostile/paren(pair)/brack[et]/bra{ce}.bin",
	"/hostile/angle<pair>/nested<a<b>>.bin",
	"/hostile/close)only/and]this/and}too.bin",
	"/hostile/eq=sign/flags=O_RDWR|O_CREAT.bin",
	"/hostile/tab\there/end.bin",
	"/hostile/ lead/and/trail .bin",
	"/hostile/-1 EAGAIN (Resource temporarily unavailable)",
	"/hostile/<unfinished ...>/resumed>.bin",
	"/hostile/+++ exited with 0 +++.bin",
	"/hostile/--- SIGCHLD {si_signo=SIGCHLD} ---.bin",
	"/hostile/%s/%d/%v/printf-verbs.bin",
	"/hostile/é🙂/ユニコード/файл.bin",
	"/hostile/....../trail.dots...",
	"/hostile/long/" + strings.Repeat("a", 480) + ".bin",
}

// HostilePaths returns the hostile path vocabulary (a copy): the fuzz
// corpus seeder and the property tests both read it.
func HostilePaths() []string {
	return append([]string(nil), hostileSegments...)
}

// hostileargs cycles the I/O call mix over the pathological vocabulary:
// every event's path is one of the hostileSegments, chosen by rng, so a
// trace file is a dense sequence of worst-case argument strings. It is
// the profile behind the committed FuzzParseCase corpus seeds.
func hostileargs(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	return generate(cid, nCases, perCase, seed, hostID(cid), func(rng *rand.Rand, c, i int) trace.Event {
		call := ioCalls[(c+i)%len(ioCalls)]
		start := time.Duration(i*900+rng.Intn(900)) * time.Microsecond
		return trace.Event{
			PID:   7000 + c,
			Call:  call,
			Start: start,
			Dur:   time.Duration(5+rng.Intn(250)) * time.Microsecond,
			FP:    hostileSegments[rng.Intn(len(hostileSegments))],
			Size:  sizeFor(rng, call),
		}
	})
}

// widevocab generalizes synth.WideLog: every event touches its own
// distinct file (the path embeds case and event index), so a log of N
// events carries exactly N distinct paths — the workload under which a
// process-wide string table grows without bound and a scoped per-pass
// table must confine the damage. Unlike synth.WideLog it emits
// round-trip-exact sizes, so the scenario matrix can drive it through
// every backend.
func widevocab(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	return generate(cid, nCases, perCase, seed, hostID(cid), func(rng *rand.Rand, c, i int) trace.Event {
		call := ioCalls[(c+i)%len(ioCalls)]
		start := time.Duration(i*1100+rng.Intn(1100)) * time.Microsecond
		return trace.Event{
			PID:   8000 + c,
			Call:  call,
			Start: start,
			Dur:   time.Duration(5+rng.Intn(350)) * time.Microsecond,
			FP:    fmt.Sprintf("/wide/rank%03d/obj%08d.bin", c, c*perCase+i),
			Size:  sizeFor(rng, call),
		}
	})
}

// MultitenantTenants is the number of interleaved sessions the
// multitenant profile simulates; cases round-robin across tenants (a
// log with fewer cases simply has fewer tenants).
const MultitenantTenants = 4

// TenantCID names tenant t's command id under the profile's base cid.
// The separator is a '-' (never '_': trace file names parse the last
// underscore-separated field as the RID).
func TenantCID(cid string, tenant int) string {
	return fmt.Sprintf("%s-t%d", cid, tenant)
}

// multitenant interleaves MultitenantTenants sessions: case c belongs
// to tenant c mod MultitenantTenants, carries that tenant's CID, and
// draws every path from a vocabulary rooted at the tenant's private
// prefix — vocabularies are pairwise disjoint by construction. This is
// the anticipated stserve shape: concurrent named sessions whose
// symbol universes must not bleed into each other.
func multitenant(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	id := func(c int) trace.CaseID {
		t := c % MultitenantTenants
		return trace.CaseID{CID: TenantCID(cid, t), Host: fmt.Sprintf("h%d", c%4), RID: c}
	}
	return generate(cid, nCases, perCase, seed, id, func(rng *rand.Rand, c, i int) trace.Event {
		t := c % MultitenantTenants
		call := ioCalls[(c+i)%len(ioCalls)]
		start := time.Duration(i*1300+rng.Intn(1300)) * time.Microsecond
		return trace.Event{
			PID:   9000 + c,
			Call:  call,
			Start: start,
			Dur:   time.Duration(5+rng.Intn(300)) * time.Microsecond,
			FP:    fmt.Sprintf("/tenant%d/sess%03d/f%04d.dat", t, c, rng.Intn(perCase/2+1)),
			Size:  sizeFor(rng, call),
		}
	})
}

// behaviorCallMix is the call cycle of the behavior profile: the file
// lifecycle, spawn and connect calls the semantic decoding layer
// classifies, plus the transfer calls that keep the DXT trip populated.
// Every entry is inside strace.IOCalls ∪ strace.BehaviorCalls, so the
// log survives ParseCase with default Options without dropping events.
var behaviorCallMix = []string{"openat", "read", "write", "unlink", "rename", "execve", "connect", "close"}

// behaviorMix exercises the semantic decoders end to end: unlink and
// rename records over the per-rank data files, execve records naming a
// small tool vocabulary, and connect records across IPv4, IPv6 and unix
// socket subjects. The strace writer renders each of these in realistic
// argument form (sockaddr structs, argv arrays), so the profile's
// round trip is what pins the decoder ↔ writer agreement.
func behaviorMix(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	return generate(cid, nCases, perCase, seed, hostID(cid), func(rng *rand.Rand, c, i int) trace.Event {
		call := behaviorCallMix[(c+i)%len(behaviorCallMix)]
		start := time.Duration(i*1400+rng.Intn(1400)) * time.Microsecond
		var fp string
		switch call {
		case "execve":
			fp = fmt.Sprintf("/usr/bin/tool%02d", rng.Intn(12))
		case "connect":
			switch rng.Intn(5) {
			case 0:
				fp = fmt.Sprintf("/run/svc%d.sock", rng.Intn(4))
			case 1:
				fp = fmt.Sprintf("[2001:db8::%x]:443", 1+rng.Intn(15))
			default:
				ports := []int{443, 80, 8080}
				fp = fmt.Sprintf("10.0.%d.%d:%d", c%4, rng.Intn(32), ports[rng.Intn(len(ports))])
			}
		default:
			fp = fmt.Sprintf("/app/data/rank%03d/f%02d.dat", c, rng.Intn(24))
		}
		return trace.Event{
			PID:   10000 + c,
			Call:  call,
			Start: start,
			Dur:   time.Duration(5+rng.Intn(300)) * time.Microsecond,
			FP:    fp,
			Size:  sizeFor(rng, call),
		}
	})
}

// Vocabulary returns the distinct file paths of a log with their event
// counts, sorted by descending count then path — the histogram the
// heavy-tail and disjointness invariants are checked on.
func Vocabulary(l *trace.EventLog) []PathCount {
	counts := make(map[string]int)
	l.Events(func(e trace.Event) { counts[e.FP]++ })
	out := make([]PathCount, 0, len(counts))
	for p, n := range counts {
		out = append(out, PathCount{Path: p, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// PathCount is one row of a vocabulary histogram.
type PathCount struct {
	Path  string
	Count int
}
