package main

import (
	"crypto/sha256"
	"runtime"
	"time"
)

// The machines this benchmark runs on are shared. For minutes at a time
// other tenants slow every instruction by 20-70% (CPU time rises with
// wall time), and no run length averages that out. CPU-bound timings are
// therefore reported at a reference host speed: a fixed, allocation-free
// kernel — benchmark code no change to the program can affect — is timed
// beside the measured work, and each timing is scaled by
// calibNominal / (the kernel's median time in that run). The raw timings
// and the factor are kept in the -json results.
//
// calibNominal is the kernel's time on the 2-core machine the baseline
// was measured on, when no other tenant was busy, so that there scaled
// and raw values agree.
const calibNominal = 5350 * time.Microsecond

// calibMem is the kernel's working set: larger than a core's private
// caches, small next to the program's own memory.
var calibMem []uint64

// calibrate returns one sample of the kernel's time. It collects first
// and warms the working set with an untimed run, so the sample does not
// depend on what ran before, and it takes the fastest of three timed
// runs, so a disturbance of a few milliseconds (a write-back, another
// tenant's burst) is not taken for the host's speed; a slowdown that
// lasts shows in all three.
func calibrate() time.Duration {
	if calibMem == nil {
		calibMem = make([]uint64, 1<<19) // 4 MiB
	}
	runtime.GC()
	kernel()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		kernel()
		best = min(best, time.Since(t0))
	}
	return best
}

func kernel() {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibMem[x%uint64(len(calibMem))] += x
	}
	var buf [4096]byte
	for i := 0; i < 256; i++ {
		sum := sha256.Sum256(buf[:])
		buf[i] = sum[0]
	}
}

// calibration collects kernel samples over one run.
type calibration struct{ samples []float64 }

func (c *calibration) sample() { c.samples = append(c.samples, calibrate().Seconds()) }

// factor is how much faster the reference host is than this run's host:
// multiply a time by it, divide a rate by it.
func (c *calibration) factor() float64 {
	return calibNominal.Seconds() / quantile(c.samples, 0.5)
}
