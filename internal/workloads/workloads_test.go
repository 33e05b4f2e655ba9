package workloads

import (
	"strings"
	"testing"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/trace"
)

func countCall(log *trace.EventLog, call string) int {
	n := 0
	log.Events(func(e trace.Event) {
		if e.Call == call {
			n++
		}
	})
	return n
}

func TestCheckpointShared(t *testing.T) {
	res, err := Checkpoint(CheckpointConfig{Shared: true, Ranks: 8, Rounds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log := res.Log
	if err := log.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// 3 rounds × 8 ranks: one open per rank per round; 8 MiB in 1 MiB
	// transfers = 8 writes per rank per round.
	if got := countCall(log, "openat"); got != 3*8 {
		t.Errorf("opens = %d, want 24", got)
	}
	if got := countCall(log, "write"); got != 3*8*8 {
		t.Errorf("writes = %d, want 192", got)
	}
	if got := countCall(log, "fsync"); got != 24 {
		t.Errorf("fsyncs = %d", got)
	}
	// Shared checkpoints contend: shared opens and revocations happen.
	if res.FS.SharedOpens == 0 {
		t.Errorf("shared checkpoint had no contended opens")
	}
	if res.FS.Revocations == 0 {
		t.Errorf("shared checkpoint had no token revocations")
	}
	// Distinct file per round.
	paths := map[string]bool{}
	log.Events(func(e trace.Event) {
		if e.Call == "openat" {
			paths[e.FP] = true
		}
	})
	if len(paths) != 3 {
		t.Errorf("checkpoint files = %d, want 3", len(paths))
	}
}

func TestCheckpointFPPAvoidsContention(t *testing.T) {
	res, err := Checkpoint(CheckpointConfig{Shared: false, Ranks: 8, Rounds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FS.Revocations != 0 {
		t.Errorf("per-rank checkpoints caused %d revocations", res.FS.Revocations)
	}
	if res.FS.SharedOpens != 0 {
		t.Errorf("per-rank checkpoints caused %d shared opens", res.FS.SharedOpens)
	}
	// The DFG comparison mirrors Figure 8: shared checkpoint writes
	// carry a much higher load.
	shared, err := Checkpoint(CheckpointConfig{CID: "shared", Shared: true, Ranks: 8, Rounds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fppDur := res.Log.TotalDur()
	sharedDur := shared.Log.TotalDur()
	if sharedDur < 5*fppDur {
		t.Errorf("shared ckpt total %v not ≫ fpp %v", time.Duration(sharedDur), time.Duration(fppDur))
	}
}

func TestMetadataStorm(t *testing.T) {
	res, err := MetadataStorm(MetadataStormConfig{Ranks: 8, FilesPerRank: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	log := res.Log
	// Per rank: 10 × (create-open + read-open) and 10 unlinks.
	if got := countCall(log, "openat"); got != 8*20 {
		t.Errorf("opens = %d, want 160", got)
	}
	if got := countCall(log, "unlink"); got != 8*10 {
		t.Errorf("unlinks = %d, want 80", got)
	}
	// All files in one directory: creates + unlinks serialize there.
	if res.FS.DirCreates != 8*20 { // 10 creates + 10 unlinks per rank
		t.Errorf("dir metadata ops = %d, want 160", res.FS.DirCreates)
	}
	// No data contention: distinct files, single writer each.
	if res.FS.Revocations != 0 {
		t.Errorf("revocations = %d", res.FS.Revocations)
	}
	// The DFG shows the storm: openat and unlink dominate the load.
	in := core.FromEventLog(log).WithMapping(pm.CallTopDirs{Depth: 3})
	st := in.Stats()
	var openRd, writeRd float64
	for _, a := range st.Activities() {
		call, _ := a.Parts()
		switch call {
		case "openat":
			openRd += st.Get(a).RelDur
		case "write":
			writeRd += st.Get(a).RelDur
		}
	}
	if openRd < writeRd {
		t.Errorf("metadata storm: open load %.3f not above write load %.3f", openRd, writeRd)
	}
}

func TestSharedLog(t *testing.T) {
	res, err := SharedLog(SharedLogConfig{Ranks: 8, Records: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := countCall(res.Log, "write"); got != 8*16 {
		t.Errorf("writes = %d, want 128", got)
	}
	// Interleaved appends bounce the write token on nearly every
	// record.
	if res.FS.Revocations < 8*16/2 {
		t.Errorf("revocations = %d, want ≥ 64 (token bouncing)", res.FS.Revocations)
	}
	// Exactly one shared file.
	paths := map[string]bool{}
	res.Log.Events(func(e trace.Event) { paths[e.FP] = true })
	if len(paths) != 1 {
		t.Errorf("paths = %v", paths)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a, err := SharedLog(SharedLogConfig{Ranks: 4, Records: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedLog(SharedLogConfig{Ranks: 4, Records: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ac, bc := a.Log.Cases(), b.Log.Cases()
	for i := range ac {
		for j := range ac[i].Events {
			if ac[i].Events[j] != bc[i].Events[j] {
				t.Fatalf("case %d event %d differs", i, j)
			}
		}
	}
}

func TestWorkloadDFGRendering(t *testing.T) {
	res, err := Checkpoint(CheckpointConfig{Shared: true, Ranks: 4, Rounds: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := core.FromEventLog(res.Log).WithMapping(pm.CallTopDirs{Depth: 4})
	txt := render.RenderText(in.DFG(), in.Stats(), nil)
	if !strings.Contains(txt, "openat") || !strings.Contains(txt, "write") {
		t.Errorf("render broken:\n%s", txt)
	}
}
