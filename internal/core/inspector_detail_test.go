package core

import (
	"testing"

	"stinspector/internal/dfg"
	"stinspector/internal/strace"
)

// TestInspectorDistribution: the Inspector's detail fold (the one
// Timeline reads) over the demo log; its distribution and per-case
// views are what stinspect dist and percase print.
func TestInspectorDistribution(t *testing.T) {
	det := demoInspector().detail()
	d, ok := det.Distribution("read:/usr/lib")
	if !ok {
		t.Fatalf("no distribution")
	}
	if d.Events != 18 {
		t.Errorf("events = %d, want 18", d.Events)
	}
	if d.Min <= 0 || d.Max < d.Min || d.P50 < d.Min || d.P50 > d.Max {
		t.Errorf("quantiles inconsistent: %+v", d)
	}
	if _, ok := det.Distribution("no:such"); ok {
		t.Errorf("absent activity produced a distribution")
	}
}

func TestInspectorPerCase(t *testing.T) {
	det := demoInspector().detail()
	rows := det.PerCase("read:/usr/lib")
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
	all := det.PerCase("")
	if len(all) != 6 {
		t.Errorf("all rows = %d", len(all))
	}
}

func TestInspectorFootprint(t *testing.T) {
	in := demoInspector()
	fp := dfg.NewFootprint(in.DFG())
	if len(fp.Activities) != 8 {
		t.Fatalf("footprint alphabet = %v", fp.Activities)
	}
	if got := fp.Relation("read:/usr/lib", "read:/proc/filesystems").String(); got != "→" {
		t.Errorf("relation = %s, want →", got)
	}
	// Filtering changes the footprint deterministically.
	sub := dfg.NewFootprint(in.FilterPath("/usr/lib").DFG())
	if len(sub.Activities) != 1 {
		t.Errorf("filtered alphabet = %v", sub.Activities)
	}
	if s := fp.Similarity(sub); s >= 1 {
		t.Errorf("similarity with filtered view = %v", s)
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
