package lssim

import (
	"math"
	"testing"

	"stinspector/internal/core"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
	"stinspector/internal/trace"
)

func TestShapes(t *testing.T) {
	ca, cb, cx := Both(Config{})
	if ca.NumCases() != 3 || cb.NumCases() != 3 || cx.NumCases() != 6 {
		t.Fatalf("cases = %d/%d/%d", ca.NumCases(), cb.NumCases(), cx.NumCases())
	}
	if got := ca.NumEvents(); got != 3*8 {
		t.Errorf("ls events = %d, want 24", got)
	}
	if got := cb.NumEvents(); got != 3*17 {
		t.Errorf("ls -l events = %d, want 51", got)
	}
	for _, log := range []*trace.EventLog{ca, cb, cx} {
		if err := log.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestNoSelfOverlapWithinCases(t *testing.T) {
	_, _, cx := Both(Config{})
	for _, c := range cx.Cases() {
		for i := 1; i < len(c.Events); i++ {
			prev, cur := c.Events[i-1], c.Events[i]
			if cur.Start < prev.End() {
				t.Errorf("case %s: event %d (%s@%v) starts before %s ends (%v)",
					c.ID, i, cur.Call, cur.Start, prev.Call, prev.End())
			}
		}
	}
}

// TestFig3Bytes verifies the byte totals printed in Figure 3, which derive
// exactly from the Figure 2 transfer sizes times three processes.
func TestFig3Bytes(t *testing.T) {
	_, _, cx := Both(Config{})
	s := core.FromEventLog(cx).Stats()
	want := map[pm.Activity]int64{
		"read:/usr/lib":           14976, // 14.98 KB
		"read:/proc/filesystems":  2868,  // 2.87 KB
		"read:/etc/locale.alias":  17976, // 17.98 KB
		"read:/etc/nsswitch.conf": 1626,  // 1.63 KB
		"read:/etc/passwd":        4836,  // 4.84 KB
		"read:/etc/group":         2616,  // 2.62 KB
		"read:/usr/share":         11241, // 11.24 KB
		"write:/dev/pts":          753,   // 0.75 KB
	}
	for a, bytes := range want {
		st := s.Get(a)
		if st == nil {
			t.Errorf("activity %s missing", a)
			continue
		}
		if st.Bytes != bytes {
			t.Errorf("bytes(%s) = %d, want %d", a, st.Bytes, bytes)
		}
	}
	if got := len(s.Activities()); got != len(want) {
		t.Errorf("activities = %d, want %d: %v", got, len(want), s.Activities())
	}
}

// TestFig3RelativeDurations verifies the Load values of Figure 3 within
// rounding tolerance.
func TestFig3RelativeDurations(t *testing.T) {
	_, _, cx := Both(Config{})
	s := core.FromEventLog(cx).Stats()
	want := map[pm.Activity]float64{
		"read:/usr/lib":           0.22,
		"read:/proc/filesystems":  0.27,
		"read:/etc/locale.alias":  0.19,
		"read:/etc/nsswitch.conf": 0.05,
		"read:/etc/passwd":        0.02,
		"read:/etc/group":         0.03,
		"read:/usr/share":         0.05,
		"write:/dev/pts":          0.17,
	}
	for a, rd := range want {
		st := s.Get(a)
		if st == nil {
			t.Fatalf("activity %s missing", a)
		}
		if math.Abs(st.RelDur-rd) > 0.01 {
			t.Errorf("rd(%s) = %.4f, want %.2f ± 0.01", a, st.RelDur, rd)
		}
	}
}

// TestFig3MaxConcurrency verifies the DR multiplicities of Figure 3.
func TestFig3MaxConcurrency(t *testing.T) {
	_, _, cx := Both(Config{})
	s := core.FromEventLog(cx).Stats()
	want := map[pm.Activity]int{
		"read:/usr/lib":           2,
		"read:/proc/filesystems":  2,
		"read:/etc/locale.alias":  3,
		"read:/etc/nsswitch.conf": 2,
		"read:/etc/passwd":        1,
		"read:/etc/group":         2,
		"read:/usr/share":         2,
		"write:/dev/pts":          3,
	}
	for a, mc := range want {
		st := s.Get(a)
		if st == nil {
			t.Fatalf("activity %s missing", a)
		}
		if st.MaxConc != mc {
			t.Errorf("mc(%s) = %d, want %d", a, st.MaxConc, mc)
		}
	}
}

// TestFig5Timeline verifies the Figure 5 shape: the read:/usr/lib events
// of C_b form three rows of three bars with max-concurrency 2.
func TestFig5Timeline(t *testing.T) {
	_, cb, _ := Both(Config{})
	d := stats.NewDetail(pm.CallTopDirs{Depth: 2})
	for _, c := range cb.Cases() {
		d.Add(c)
	}
	tl := d.Timeline("read:/usr/lib")
	if len(tl) != 9 {
		t.Fatalf("timeline intervals = %d, want 9", len(tl))
	}
	rows := map[trace.CaseID]int{}
	for _, iv := range tl {
		rows[iv.Case]++
	}
	if len(rows) != 3 {
		t.Errorf("timeline rows = %d, want 3", len(rows))
	}
	for id, n := range rows {
		if n != 3 {
			t.Errorf("row %s has %d bars, want 3", id, n)
		}
	}
	if mc := stats.MaxConcurrency(tl); mc != 2 {
		t.Errorf("timeline mc = %d, want 2", mc)
	}
}

// The trace σ_f̂(a9042) as printed in Section IV.
func TestPaperTraceSequence(t *testing.T) {
	ca := ls(Config{})
	l := pm.Build(ca, pm.CallTopDirs{Depth: 2}, pm.BuildOptions{})
	if l.NumVariants() != 1 || l.Variants()[0].Mult != 3 {
		t.Fatalf("variants = %d, mult = %d", l.NumVariants(), l.Variants()[0].Mult)
	}
	want := pm.Trace{
		"read:/usr/lib", "read:/usr/lib", "read:/usr/lib",
		"read:/proc/filesystems", "read:/proc/filesystems",
		"read:/etc/locale.alias", "read:/etc/locale.alias",
		"write:/dev/pts",
	}
	got := l.Variants()[0].Seq
	if len(got) != len(want) {
		t.Fatalf("trace = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("trace[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestCustomConfig(t *testing.T) {
	log := ls(Config{Host: "nodeX", RIDsA: []int{1, 2}})
	if log.NumCases() != 2 {
		t.Fatalf("cases = %d", log.NumCases())
	}
	for _, c := range log.Cases() {
		if c.ID.Host != "nodeX" || c.ID.CID != "a" {
			t.Errorf("case id = %v", c.ID)
		}
	}
}
