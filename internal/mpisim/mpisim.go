// Package mpisim simulates the process layout and time coordination of an
// MPI job: ranks spread over hosts, per-rank virtual clocks, barriers,
// and a conservative discrete-event scheduler that interleaves the ranks'
// system-call programs in virtual-time order. It stands in for the
// srun/MPI runtime of the paper's JUWELS experiments; system-call costs
// are supplied by a filesystem model (see internal/simfs) through the
// CostFunc of each syscall action.
package mpisim

import (
	"fmt"
	"time"

	"stinspector/internal/trace"
	"stinspector/internal/vclock"
)

// Rank is one simulated MPI rank.
type Rank struct {
	// ID is the MPI rank number, 0-based.
	ID int
	// Host is the machine the rank runs on.
	Host string
	// RID is the launching-process identifier used in the trace file
	// name; PID is the identifier of the forked child executing the
	// command (the paper's example has RID ≠ PID).
	RID int
	PID int
	// Clock is the rank's virtual wall clock.
	Clock vclock.Clock
	// RNG is the rank's private deterministic random stream.
	RNG *vclock.RNG

	events []trace.Event
}

// World is a set of ranks spread over hosts.
type World struct {
	Ranks []*Rank
	rng   *vclock.RNG
}

// Config controls world construction.
type Config struct {
	// Ranks is the total number of MPI ranks (default 1).
	Ranks int
	// Hosts is the number of host machines the ranks are spread over,
	// block-distributed (default 1).
	Hosts int
	// HostPattern names hosts, applied as fmt.Sprintf(pattern, index)
	// (default "jwc%03d", mirroring JUWELS node names).
	HostPattern string
	// BaseRID numbers launching processes (default 9000); PIDs are
	// offset by PIDOffset (default 12).
	BaseRID   int
	PIDOffset int
	// StartOfDay is the virtual time-of-day at which all clocks start
	// (default 10:00:00).
	StartOfDay time.Duration
	// HostSkew offsets every clock on host index i by HostSkew*i,
	// modelling unsynchronized clocks across machines (Section IV-B:
	// this perturbs max-concurrency but must not affect the DFG).
	HostSkew time.Duration
	// Seed makes the simulation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.Hosts <= 0 {
		c.Hosts = 1
	}
	if c.Hosts > c.Ranks {
		c.Hosts = c.Ranks
	}
	if c.HostPattern == "" {
		c.HostPattern = "jwc%03d"
	}
	if c.BaseRID == 0 {
		c.BaseRID = 9000
	}
	if c.PIDOffset == 0 {
		c.PIDOffset = 12
	}
	if c.StartOfDay == 0 {
		c.StartOfDay = 10 * time.Hour
	}
	return c
}

// NewWorld builds the rank layout. Ranks are block-distributed over
// hosts: with 96 ranks on 2 hosts, ranks 0-47 land on host 0.
func NewWorld(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{rng: vclock.NewRNG(cfg.Seed)}
	perHost := (cfg.Ranks + cfg.Hosts - 1) / cfg.Hosts
	for i := 0; i < cfg.Ranks; i++ {
		hostIdx := i / perHost
		r := &Rank{
			ID:    i,
			Host:  fmt.Sprintf(cfg.HostPattern, hostIdx),
			RID:   cfg.BaseRID + i,
			PID:   cfg.BaseRID + i + cfg.PIDOffset,
			Clock: vclock.At(cfg.StartOfDay + time.Duration(hostIdx)*cfg.HostSkew),
			RNG:   w.rng.Fork(int64(i + 1)),
		}
		w.Ranks = append(w.Ranks, r)
	}
	return w
}

// RanksPerHost returns how many ranks share the first host (the block
// size of the distribution).
func (w *World) RanksPerHost() int {
	if len(w.Ranks) == 0 {
		return 0
	}
	first := w.Ranks[0].Host
	n := 0
	for _, r := range w.Ranks {
		if r.Host == first {
			n++
		}
	}
	return n
}

// record appends a system-call event to the rank's trace at the current
// clock and advances the clock past it. Size < 0 records a sizeless call
// (openat, lseek, ...). Timestamps and durations are truncated to
// microseconds — the resolution of strace -tt -T output — so that an
// event-log and its strace-text rendering carry identical values.
func (r *Rank) record(call, path string, dur time.Duration, size int64) {
	r.events = append(r.events, trace.Event{
		PID:   r.PID,
		Call:  call,
		Start: r.Clock.Now().Truncate(time.Microsecond),
		Dur:   dur.Truncate(time.Microsecond),
		FP:    path,
		Size:  size,
	})
	r.Clock.Advance(dur)
	// A few microseconds of user-space time between consecutive system
	// calls, so that events of one process never overlap.
	r.Clock.Advance(r.RNG.Between(time.Microsecond, 4*time.Microsecond))
}

// EventLog collects the recorded events of all ranks into an event-log,
// one case per rank, under the given command identifier. Each rank's
// recorded events are handed over to its case, not copied, so EventLog
// is called once, after the run.
func (w *World) EventLog(cid string) (*trace.EventLog, error) {
	log, err := trace.NewEventLog()
	if err != nil {
		return nil, err
	}
	for _, r := range w.Ranks {
		id := trace.CaseID{CID: cid, Host: r.Host, RID: r.RID}
		events := r.events
		r.events = nil
		if err := log.Add(trace.NewCase(id, events)); err != nil {
			return nil, err
		}
	}
	return log, nil
}
