// Package lssim generates the running example of the paper: the traces
// of "ls" (command identifier "a") and "ls -l" (command identifier "b"),
// each executed by three MPI processes on one host (Figures 1 and 2).
//
// The generated events reproduce the paper's figures quantitatively:
//
//   - transfer sizes are the ones printed in Figure 2, which makes the
//     per-activity byte totals match Figure 3 exactly (e.g. 18 × 832 B =
//     14.98 KB for read:/usr/lib);
//   - durations are calibrated so that the relative-duration statistics
//     match the Load values of Figure 3 to ±0.01;
//   - start schedules are laid out so that the max-concurrency statistics
//     match the DR multiplicities of Figure 3 (2× for read:/usr/lib,
//     3× for read:/etc/locale.alias and write:/dev/pts, 1× for
//     read:/etc/passwd, ...), including the Figure 5 timeline shape.
package lssim

import (
	"time"

	"stinspector/internal/trace"
)

// Config controls generation.
type Config struct {
	// Host is the machine name (default "host1").
	Host string
	// RIDsA / RIDsB are the launcher process ids of the two commands
	// (defaults: the paper's 9042/9043/9045 and 9157/9158/9160).
	RIDsA []int
	RIDsB []int
}

func (c Config) withDefaults() Config {
	if c.Host == "" {
		c.Host = "host1"
	}
	if len(c.RIDsA) == 0 {
		c.RIDsA = []int{9042, 9043, 9045}
	}
	if len(c.RIDsB) == 0 {
		c.RIDsB = []int{9157, 9158, 9160}
	}
	return c
}

// ev describes one scheduled event of a case.
type ev struct {
	call  string
	fp    string
	start int64 // µs offset within the case schedule
	dur   int64 // µs
	size  int64
}

// File paths of Figure 2.
const (
	libSelinux = "/usr/lib/x86_64-linux-gnu/libselinux.so.1"
	libC       = "/usr/lib/x86_64-linux-gnu/libc.so.6"
	libPcre    = "/usr/lib/x86_64-linux-gnu/libpcre2-8.so.0.10.4"
	procFS     = "/proc/filesystems"
	locale     = "/etc/locale.alias"
	nsswitch   = "/etc/nsswitch.conf"
	passwd     = "/etc/passwd"
	group      = "/etc/group"
	zoneinfo   = "/usr/share/zoneinfo/Europe/Berlin"
	pts        = "/dev/pts/7"
)

// scheduleA returns the per-case schedules of the ls command. Index i is
// the i-th case. Durations are identical across cases (they encode the
// Load calibration); start offsets differ (they encode the concurrency
// calibration).
func scheduleA() [][]ev {
	durs := []int64{203, 79, 85, 250, 200, 167, 150, 111}
	sizes := []int64{832, 832, 832, 478, 0, 2996, 0, 50}
	calls := []string{"read", "read", "read", "read", "read", "read", "read", "write"}
	fps := []string{libSelinux, libC, libPcre, procFS, procFS, locale, locale, pts}
	starts := [][]int64{
		{0, 300, 500, 800, 1100, 1500, 1700, 2000},
		{100, 350, 560, 900, 1150, 1560, 1760, 2050},
		{700, 950, 1150, 1355, 1610, 1812, 1985, 2140},
	}
	return build(calls, fps, durs, sizes, starts)
}

// scheduleB returns the per-case schedules of the ls -l command.
func scheduleB() [][]ev {
	durs := []int64{203, 79, 85, 250, 200, 167, 150, 140, 27, 67, 100, 74, 74, 93, 99, 109, 174}
	sizes := []int64{832, 832, 832, 478, 0, 2996, 0, 542, 0, 1612, 872, 9, 2298, 1449, 74, 53, 65}
	calls := []string{
		"read", "read", "read", "read", "read", "read", "read",
		"read", "read", "read", "read", "write", "read", "read",
		"write", "write", "write",
	}
	fps := []string{
		libSelinux, libC, libPcre, procFS, procFS, locale, locale,
		nsswitch, nsswitch, passwd, group, pts, zoneinfo, zoneinfo,
		pts, pts, pts,
	}
	starts := [][]int64{
		{0, 300, 500, 800, 1100, 1500, 1700, 1900, 2100, 2200, 2300, 2450, 2600, 2700, 2850, 3000, 3200},
		{100, 350, 560, 900, 1150, 1560, 1760, 1950, 2150, 2270, 2380, 2480, 2610, 2710, 2900, 3050, 3250},
		{700, 950, 1150, 1355, 1610, 1812, 1985, 2140, 2285, 2360, 2430, 2595, 2810, 2890, 3000, 3150, 3430},
	}
	return build(calls, fps, durs, sizes, starts)
}

func build(calls, fps []string, durs, sizes []int64, starts [][]int64) [][]ev {
	out := make([][]ev, len(starts))
	for c, ss := range starts {
		evs := make([]ev, len(calls))
		for i := range calls {
			size := sizes[i]
			if calls[i] != "read" && calls[i] != "write" {
				size = trace.SizeUnknown
			}
			evs[i] = ev{call: calls[i], fp: fps[i], start: ss[i], dur: durs[i], size: size}
		}
		out[c] = evs
	}
	return out
}

// Base times of day of the two commands, from Figure 2 (08:55:54 for ls,
// 08:56:04 for ls -l).
var (
	baseA = 8*time.Hour + 55*time.Minute + 54*time.Second + 153994*time.Microsecond
	baseB = 8*time.Hour + 56*time.Minute + 4*time.Second + 731999*time.Microsecond
)

// ls generates the event-log C_a of the ls command.
func ls(cfg Config) *trace.EventLog {
	cfg = cfg.withDefaults()
	return buildLog("a", cfg.Host, cfg.RIDsA, 12, baseA, scheduleA())
}

// LSL generates the event-log C_b of the ls -l command.
func LSL(cfg Config) *trace.EventLog {
	cfg = cfg.withDefaults()
	return buildLog("b", cfg.Host, cfg.RIDsB, 16, baseB, scheduleB())
}

// Both generates C_a, C_b and their union C_x (Equation 3).
func Both(cfg Config) (ca, cb, cx *trace.EventLog) {
	ca = ls(cfg)
	cb = LSL(cfg)
	cx = trace.MustUnion(ca, cb)
	return ca, cb, cx
}

func buildLog(cid, host string, rids []int, pidOffset int, base time.Duration, schedules [][]ev) *trace.EventLog {
	var cases []*trace.Case
	for i, rid := range rids {
		sched := schedules[i%len(schedules)]
		events := make([]trace.Event, len(sched))
		for j, e := range sched {
			events[j] = trace.Event{
				PID:   rid + pidOffset,
				Call:  e.call,
				Start: base + time.Duration(e.start)*time.Microsecond,
				Dur:   time.Duration(e.dur) * time.Microsecond,
				FP:    e.fp,
				Size:  e.size,
			}
		}
		cases = append(cases, trace.NewCase(trace.CaseID{CID: cid, Host: host, RID: rid}, events))
	}
	return trace.MustNewEventLog(cases...)
}
