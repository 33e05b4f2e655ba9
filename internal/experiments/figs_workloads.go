package experiments

import (
	"fmt"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/trace"
	"stinspector/internal/workloads"
)

// workloadCheckpoint runs the checkpoint workload in both strategies and
// checks that the Figure 8 contention signature carries over to this
// application pattern (the paper's future-work direction).
func workloadCheckpoint() (*Report, error) {
	r := &Report{ID: "wl-ckpt", Title: "workload: periodic checkpointing, shared file vs file per rank"}
	shared, err := workloads.Checkpoint(workloads.CheckpointConfig{
		CID: "shared", Ranks: 16, Rounds: 4, Shared: true, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	perRank, err := workloads.Checkpoint(workloads.CheckpointConfig{
		CID: "perrank", Ranks: 16, Rounds: 4, Shared: false, Seed: 1,
	})
	if err != nil {
		return nil, err
	}

	union := shared.Log.Clone()
	for _, c := range perRank.Log.Cases() {
		if err := union.Add(c); err != nil {
			return nil, err
		}
	}
	m := pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) {
		strategy := "shared"
		if hasRankSuffix(e.FP) {
			strategy = "perrank"
		}
		return pm.Activity(e.Call + ":" + strategy), true
	})
	in := core.FromEventLog(union).WithMapping(m)
	st := in.Stats()
	r.Text = render.StatsTable(st)

	r.checkInt("shared-run revocations > 0", boolToInt(shared.FS.Revocations > 0), 1)
	r.checkInt("per-rank revocations", perRank.FS.Revocations, 0)
	rdOpenShared := st.Get("openat:shared").RelDur
	rdOpenPer := st.Get("openat:perrank").RelDur
	r.check("openat load shared ≫ per-rank", rdOpenShared > 10*rdOpenPer,
		fmt.Sprintf("%.3f vs %.3f", rdOpenShared, rdOpenPer), "> 10×")
	sharedDur := time.Duration(shared.Log.TotalDur())
	perDur := time.Duration(perRank.Log.TotalDur())
	r.check("wall time shared ≫ per-rank", sharedDur > 5*perDur,
		fmt.Sprintf("%v vs %v", sharedDur.Round(time.Millisecond), perDur.Round(time.Millisecond)), "> 5×")
	return r, nil
}

// workloadMetadataStorm runs the many-small-files workload and checks
// that the load concentrates on the metadata operations, the "metadata
// wall" of the paper's reference [22].
func workloadMetadataStorm() (*Report, error) {
	r := &Report{ID: "wl-meta", Title: "workload: metadata storm (many small files, one directory)"}
	res, err := workloads.MetadataStorm(workloads.MetadataStormConfig{Ranks: 16, FilesPerRank: 12, Seed: 2})
	if err != nil {
		return nil, err
	}
	in := core.FromEventLog(res.Log).WithMapping(pm.CallTopDirs{Depth: 3})
	st := in.Stats()
	r.Text = render.StatsTable(st)

	var meta, data float64
	for _, a := range st.Activities() {
		call, _ := a.Parts()
		switch call {
		case "openat", "unlink":
			meta += st.Get(a).RelDur
		case "read", "write":
			data += st.Get(a).RelDur
		}
	}
	r.check("metadata load dominates data load", meta > 5*data,
		fmt.Sprintf("%.3f vs %.3f", meta, data), "> 5×")
	r.checkInt("dir metadata ops", res.FS.DirCreates, 16*24)
	r.checkInt("revocations (private files)", res.FS.Revocations, 0)
	return r, nil
}

// workloadSharedLog runs the shared-append workload and checks the
// token-bouncing signature: nearly every record pays a revocation.
func workloadSharedLog() (*Report, error) {
	r := &Report{ID: "wl-shlog", Title: "workload: shared-log append (maximal token bouncing)"}
	res, err := workloads.SharedLog(workloads.SharedLogConfig{Ranks: 16, Records: 24, Seed: 3})
	if err != nil {
		return nil, err
	}
	in := core.FromEventLog(res.Log).WithMapping(pm.CallTopDirs{Depth: 4})
	st := in.Stats()
	r.Text = render.StatsTable(st)

	writes := 16 * 24
	r.check("revocations ≈ records", res.FS.Revocations >= writes/2,
		fmt.Sprintf("%d", res.FS.Revocations), fmt.Sprintf("≥ %d", writes/2))
	// The write activity carries essentially the whole load.
	var writeRd float64
	for _, a := range st.Activities() {
		if call, _ := a.Parts(); call == "write" {
			writeRd += st.Get(a).RelDur
		}
	}
	r.checkRange("write load share", writeRd, 0.8, 1.0)
	// Concurrency: queued appends overlap across all ranks.
	var mc int
	for _, a := range st.Activities() {
		if call, _ := a.Parts(); call == "write" {
			if st.Get(a).MaxConc > mc {
				mc = st.Get(a).MaxConc
			}
		}
	}
	r.checkInt("write max-concurrency", mc, 16)
	return r, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func hasRankSuffix(fp string) bool {
	i := len(fp) - 1
	digits := 0
	for i >= 0 && fp[i] >= '0' && fp[i] <= '9' {
		digits++
		i--
	}
	return digits == 8 && i >= 0 && fp[i] == '.'
}
