package mpisim

import (
	"testing"
	"time"

	"stinspector/internal/trace"
)

func TestWorldLayout(t *testing.T) {
	w := NewWorld(Config{Ranks: 96, Hosts: 2, Seed: 1})
	if len(w.Ranks) != 96 {
		t.Fatalf("ranks = %d", len(w.Ranks))
	}
	if w.RanksPerHost() != 48 {
		t.Errorf("ranks per host = %d, want 48", w.RanksPerHost())
	}
	hosts := map[string]int{}
	for _, r := range w.Ranks {
		hosts[r.Host]++
	}
	if len(hosts) != 2 {
		t.Errorf("hosts = %v", hosts)
	}
	for h, n := range hosts {
		if n != 48 {
			t.Errorf("host %s has %d ranks", h, n)
		}
	}
	// Distinct identities.
	rids := map[int]bool{}
	for _, r := range w.Ranks {
		if rids[r.RID] {
			t.Errorf("duplicate rid %d", r.RID)
		}
		rids[r.RID] = true
		if r.PID == r.RID {
			t.Errorf("pid should differ from rid")
		}
	}
}

func TestWorldDefaults(t *testing.T) {
	w := NewWorld(Config{})
	if len(w.Ranks) != 1 || w.RanksPerHost() != 1 {
		t.Errorf("default world = %d ranks", len(w.Ranks))
	}
	if w.Ranks[0].Clock.Now() != 10*time.Hour {
		t.Errorf("default start of day = %v", w.Ranks[0].Clock.Now())
	}
}

func TestHostSkew(t *testing.T) {
	w := NewWorld(Config{Ranks: 4, Hosts: 2, HostSkew: time.Minute, Seed: 1})
	if got := w.Ranks[0].Clock.Now(); got != 10*time.Hour {
		t.Errorf("host 0 clock = %v", got)
	}
	if got := w.Ranks[3].Clock.Now(); got != 10*time.Hour+time.Minute {
		t.Errorf("host 1 clock = %v, want skewed by 1m", got)
	}
}

func constCost(d time.Duration, size int64) CostFunc {
	return func(r *Rank, now time.Duration) (time.Duration, int64) { return d, size }
}

func TestEngineRecordsEvents(t *testing.T) {
	w := NewWorld(Config{Ranks: 2, Seed: 3})
	progs := []Program{
		{Syscall("read", "/f", constCost(time.Millisecond, 100)), Barrier(), Syscall("write", "/g", constCost(time.Millisecond, 50))},
		{Syscall("read", "/f", constCost(5*time.Millisecond, 100)), Barrier(), Syscall("write", "/g", constCost(time.Millisecond, 50))},
	}
	if err := NewEngine(w).Run(progs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	log, err := w.EventLog("t")
	if err != nil {
		t.Fatal(err)
	}
	if log.NumCases() != 2 || log.NumEvents() != 4 {
		t.Fatalf("log = %d cases / %d events", log.NumCases(), log.NumEvents())
	}
	if err := log.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// The barrier aligns the writes after the slower read: both writes
	// must start at or after the slow rank's read end.
	var slowReadEnd time.Duration
	log.Events(func(e trace.Event) {
		if e.Call == "read" && e.Dur == 5*time.Millisecond {
			slowReadEnd = e.End()
		}
	})
	log.Events(func(e trace.Event) {
		if e.Call == "write" && e.Start < slowReadEnd {
			t.Errorf("write at %v started before barrier release %v", e.Start, slowReadEnd)
		}
	})
}

func TestEngineVirtualTimeOrder(t *testing.T) {
	// The cost function observes arrival order: with rank 1 slower, the
	// third call arriving must be rank 0's second call.
	w := NewWorld(Config{Ranks: 2, Seed: 5})
	var arrivals []int
	cost := func(d time.Duration) CostFunc {
		return func(r *Rank, now time.Duration) (time.Duration, int64) {
			arrivals = append(arrivals, r.ID)
			return d, -1
		}
	}
	progs := []Program{
		{Syscall("a", "/f", cost(time.Millisecond)), Syscall("a", "/f", cost(time.Millisecond))},
		{Syscall("a", "/f", cost(10*time.Millisecond)), Syscall("a", "/f", cost(time.Millisecond))},
	}
	if err := NewEngine(w).Run(progs); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 1}
	for i, r := range want {
		if arrivals[i] != r {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestEngineComputeActions(t *testing.T) {
	w := NewWorld(Config{Ranks: 1, Seed: 7})
	progs := []Program{{
		Compute(42 * time.Millisecond),
		Syscall("read", "/f", constCost(time.Millisecond, 1)),
	}}
	if err := NewEngine(w).Run(progs); err != nil {
		t.Fatal(err)
	}
	log, _ := w.EventLog("t")
	var start time.Duration
	log.Events(func(e trace.Event) { start = e.Start })
	if start < 10*time.Hour+42*time.Millisecond {
		t.Errorf("compute did not delay the syscall: start = %v", start)
	}
}

func TestEngineErrors(t *testing.T) {
	w := NewWorld(Config{Ranks: 2, Seed: 1})
	if err := NewEngine(w).Run([]Program{{}}); err == nil {
		t.Errorf("program count mismatch accepted")
	}
	// Mismatched barrier counts.
	progs := []Program{
		{Barrier()},
		{},
	}
	if err := NewEngine(w).Run(progs); err == nil {
		t.Errorf("mismatched barrier counts accepted")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() *trace.EventLog {
		w := NewWorld(Config{Ranks: 8, Hosts: 2, Seed: 11})
		progs := make([]Program, 8)
		for i := range progs {
			progs[i] = Program{
				Syscall("read", "/f", constCost(time.Duration(i+1)*time.Millisecond, 10)),
				Barrier(),
				Syscall("write", "/g", constCost(time.Millisecond, 10)),
			}
		}
		if err := NewEngine(w).Run(progs); err != nil {
			t.Fatal(err)
		}
		log, _ := w.EventLog("d")
		return log
	}
	a, b := run(), run()
	if a.NumEvents() != b.NumEvents() {
		t.Fatalf("event counts differ")
	}
	ac, bc := a.Cases(), b.Cases()
	for i := range ac {
		for j := range ac[i].Events {
			if ac[i].Events[j] != bc[i].Events[j] {
				t.Fatalf("event %d/%d differs between runs", i, j)
			}
		}
	}
}
