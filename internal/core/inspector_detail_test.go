package core

import (
	"testing"

	"stinspector/internal/strace"
)

func TestInspectorDistribution(t *testing.T) {
	in := demoInspector()
	d, ok := in.Distribution("read:/usr/lib")
	if !ok {
		t.Fatalf("no distribution")
	}
	if d.Events != 18 {
		t.Errorf("events = %d, want 18", d.Events)
	}
	if d.Min <= 0 || d.Max < d.Min || d.P50 < d.Min || d.P50 > d.Max {
		t.Errorf("quantiles inconsistent: %+v", d)
	}
	if _, ok := in.Distribution("no:such"); ok {
		t.Errorf("absent activity produced a distribution")
	}
}

func TestInspectorPerCase(t *testing.T) {
	in := demoInspector()
	rows := in.PerCase("read:/usr/lib")
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TotalDur > rows[i-1].TotalDur {
			t.Errorf("rows not sorted by descending duration")
		}
	}
	total := 0
	for _, r := range rows {
		total += r.Events
	}
	if total != 18 {
		t.Errorf("per-case events = %d", total)
	}
	// All activities.
	all := in.PerCase("")
	if len(all) != 6 {
		t.Errorf("all rows = %d", len(all))
	}
}

func TestInspectorFootprint(t *testing.T) {
	in := demoInspector()
	fp := in.Footprint()
	if len(fp.Activities) != 8 {
		t.Fatalf("footprint alphabet = %v", fp.Activities)
	}
	if got := fp.Relation("read:/usr/lib", "read:/proc/filesystems").String(); got != "→" {
		t.Errorf("relation = %s, want →", got)
	}
	// Filtering changes the footprint deterministically.
	sub := in.FilterPath("/usr/lib").Footprint()
	if len(sub.Activities) != 1 {
		t.Errorf("filtered alphabet = %v", sub.Activities)
	}
	if s := fp.Similarity(sub); s >= 1 {
		t.Errorf("similarity with filtered view = %v", s)
	}
}

func TestInspectorRegroupByPID(t *testing.T) {
	in := demoInspector()
	re := in.RegroupByPID()
	// Each rid has exactly one pid in the demo: case count unchanged,
	// identities renumbered.
	if re.EventLog().NumCases() != in.EventLog().NumCases() {
		t.Errorf("regrouped cases = %d", re.EventLog().NumCases())
	}
	if re.EventLog().NumEvents() != in.EventLog().NumEvents() {
		t.Errorf("regrouped events = %d", re.EventLog().NumEvents())
	}
	// The DFG is invariant when pid↔rid is a bijection.
	if !re.DFG().Equal(in.DFG()) {
		t.Errorf("bijective regrouping changed the DFG")
	}
}

func TestFromDXTAndErrors(t *testing.T) {
	in, err := loadDXT("j",
		"# DXT, file_name: /p/s/f\n# DXT, hostname: h\n X_MPIIO 3 read 0 0 4096 0.001 0.003\n")
	if err != nil {
		t.Fatal(err)
	}
	if in.EventLog().NumEvents() != 1 {
		t.Errorf("events = %d", in.EventLog().NumEvents())
	}
	if in.Mapping() == nil {
		t.Errorf("Mapping() nil")
	}
	if _, err := loadDXT("j", "nonsense"); err == nil {
		t.Errorf("bad DXT accepted")
	}
	if _, err := FromStraceDir("/no/such/dir", strace.Options{}); err == nil {
		t.Errorf("missing dir accepted")
	}
	if _, err := loadArchive("/no/such/file.sta", 0); err == nil {
		t.Errorf("missing archive accepted")
	}
}
