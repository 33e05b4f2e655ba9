// Package vclock provides the virtual-time primitives shared by the
// workload simulators: per-process clocks and a deterministic random
// source for duration jitter. All simulations are reproducible for a
// given seed; nothing reads the wall clock.
package vclock

import (
	"math/rand"
	"time"
)

// Clock is a virtual wall clock for one simulated process. The zero value
// starts at time zero; simulators usually seed it with a time-of-day
// offset so that generated strace timestamps look realistic.
type Clock struct {
	now time.Duration
}

// At returns a clock set to the given instant.
func At(t time.Duration) Clock { return Clock{now: t} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d (negative d is ignored: virtual
// time never runs backwards).
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to t if t is later than now.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// RNG is a deterministic random source with helpers for duration jitter.
type RNG struct {
	r *rand.Rand
}

// NewRNG creates a deterministic source from a seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
// frac is clamped to [0, 1]; a non-positive base returns base unchanged.
func (g *RNG) Jitter(base time.Duration, frac float64) time.Duration {
	if base <= 0 || frac <= 0 {
		return base
	}
	if frac > 1 {
		frac = 1
	}
	f := 1 + frac*(2*g.r.Float64()-1)
	return time.Duration(float64(base) * f)
}

// Between returns a uniform duration in [lo, hi).
func (g *RNG) Between(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.r.Int63n(int64(hi-lo)))
}

// Fork derives an independent deterministic stream, so per-rank sources
// do not share state (and simulation order cannot perturb results).
func (g *RNG) Fork(salt int64) *RNG {
	return NewRNG(g.r.Int63() ^ salt*0x5851f42d4c957f2d)
}
