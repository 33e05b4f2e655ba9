package vclock

import (
	"testing"
	"time"
)

func TestClock(t *testing.T) {
	c := At(10 * time.Hour)
	if c.Now() != 10*time.Hour {
		t.Errorf("Now = %v", c.Now())
	}
	c.Advance(time.Second)
	if c.Now() != 10*time.Hour+time.Second {
		t.Errorf("after Advance: %v", c.Now())
	}
	c.Advance(-time.Hour)
	if c.Now() != 10*time.Hour+time.Second {
		t.Errorf("negative Advance moved the clock: %v", c.Now())
	}
	c.AdvanceTo(9 * time.Hour)
	if c.Now() != 10*time.Hour+time.Second {
		t.Errorf("AdvanceTo moved the clock backwards: %v", c.Now())
	}
	c.AdvanceTo(11 * time.Hour)
	if c.Now() != 11*time.Hour {
		t.Errorf("AdvanceTo = %v", c.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.r.Intn(1000) != b.r.Intn(1000) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 20; i++ {
		if a2.r.Intn(1000) != c.r.Intn(1000) {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical streams")
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(7)
	base := time.Millisecond
	for i := 0; i < 1000; i++ {
		d := g.Jitter(base, 0.2)
		if d < 800*time.Microsecond || d > 1200*time.Microsecond {
			t.Fatalf("jitter out of bounds: %v", d)
		}
	}
	if g.Jitter(0, 0.5) != 0 {
		t.Errorf("jitter of zero base changed")
	}
	if g.Jitter(base, 0) != base {
		t.Errorf("zero-frac jitter changed the base")
	}
	// Excessive frac is clamped: result stays non-negative.
	for i := 0; i < 100; i++ {
		if d := g.Jitter(base, 5); d < 0 {
			t.Fatalf("clamped jitter negative: %v", d)
		}
	}
}

func TestBetween(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		d := g.Between(time.Microsecond, 5*time.Microsecond)
		if d < time.Microsecond || d >= 5*time.Microsecond {
			t.Fatalf("Between out of range: %v", d)
		}
	}
	if got := g.Between(time.Second, time.Second); got != time.Second {
		t.Errorf("degenerate Between = %v", got)
	}
}

func TestFork(t *testing.T) {
	g := NewRNG(1)
	a := g.Fork(1)
	b := g.Fork(2)
	same := true
	for i := 0; i < 20; i++ {
		if a.r.Intn(1<<30) != b.r.Intn(1<<30) {
			same = false
		}
	}
	if same {
		t.Errorf("forked streams identical")
	}
	// Forks of equal construction are deterministic.
	g1, g2 := NewRNG(5), NewRNG(5)
	f1, f2 := g1.Fork(3), g2.Fork(3)
	for i := 0; i < 50; i++ {
		if f1.r.Intn(1000) != f2.r.Intn(1000) {
			t.Fatalf("fork determinism broken at %d", i)
		}
	}
}
