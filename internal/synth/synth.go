// Package synth generates deterministic synthetic event-logs shaped
// like the paper's per-rank I/O traces (open, interleaved
// read/write/seek bursts, close). It backs the parallel-equivalence
// tests and the allocation and speedup gates, so the workload they
// measure is defined in one place.
package synth

import (
	"fmt"
	"math/rand"
	"time"

	"stinspector/internal/trace"
)

// calls cycles only through calls in strace.IOCalls, so a log survives
// a write-to-strace-text / parse-back round trip with default Options
// without dropping events.
var calls = []string{"read", "write", "openat", "lseek", "close"}

// Log builds an event-log of nCases cases (one per simulated rank,
// hosts cycling h0..h3) with perCase events each, named by cid. The
// same (cid, nCases, perCase, seed) always yields the identical log.
func Log(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	return generate(cid, nCases, perCase, seed, func(c, i int) string {
		return fmt.Sprintf("/scratch/job/rank%03d/part%02d.bin", c, i%8)
	})
}

// WideLog is Log with an unbounded-vocabulary path model: every event
// touches its own distinct file, so a log of N events carries N
// distinct paths. It is the adversarial workload for the symbol
// layer's retention properties — ingesting it through the process-wide
// table would grow that table by the full vocabulary, which is exactly
// what a scoped per-pass table must confine.
func WideLog(cid string, nCases, perCase int, seed int64) *trace.EventLog {
	return generate(cid, nCases, perCase, seed, func(c, i int) string {
		return fmt.Sprintf("/scratch/wide/rank%03d/obj%06d.bin", c, i)
	})
}

// generate is the shared event model of Log and WideLog; fp chooses
// the path of case c's i-th event, which is the only thing the two
// workloads differ in.
func generate(cid string, nCases, perCase int, seed int64, fp func(c, i int) string) *trace.EventLog {
	rng := rand.New(rand.NewSource(seed))
	cases := make([]*trace.Case, nCases)
	for c := 0; c < nCases; c++ {
		evs := make([]trace.Event, perCase)
		start := time.Duration(0)
		for i := range evs {
			start += time.Duration(rng.Intn(1500)) * time.Microsecond
			evs[i] = trace.Event{
				PID:   4000 + c,
				Call:  calls[(c+i)%len(calls)],
				Start: start,
				Dur:   time.Duration(5+rng.Intn(400)) * time.Microsecond,
				FP:    fp(c, i),
				Size:  int64(rng.Intn(1 << 18)),
			}
		}
		id := trace.CaseID{CID: cid, Host: fmt.Sprintf("h%d", c%4), RID: c}
		cases[c] = trace.NewCase(id, evs)
	}
	return trace.MustNewEventLog(cases...)
}
