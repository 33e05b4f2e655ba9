package main

// The scenario matrix: every generator profile through every ingestion
// backend at one and many analysis shards, with strace ingestion over
// scoped and process-wide string tables (the archive and DXT backends
// always intern into the process-wide one). The generators are
// deterministic in (profile, cid, cases, events, seed) and the
// pipeline's artifacts are parallelism-independent, so every column of
// a cell is machine-independent structure; TestScenarioMatrix pins all
// of them against the committed BENCH_matrix.json at the repository
// root.
// Timing is the repository benchmark's job (bench/), not this test's.
//
// Regenerate the baseline after an intended structural change with
//
//	go test ./cmd/stbench -run TestScenarioMatrix -update
//
// and review the diff.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/fstest"

	"stinspector/internal/archive"
	"stinspector/internal/core"
	"stinspector/internal/dxt"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

var updateMatrix = flag.Bool("update", false, "rewrite BENCH_matrix.json from a fresh TestScenarioMatrix sweep")

// matrixBaseline is the committed baseline, relative to this package.
const matrixBaseline = "../../BENCH_matrix.json"

// matrixBackends is the backend axis. "sta2" is the STA archive (named
// for its format version, so cells compare across commits); its cells
// must match the strace cells of the same profile in everything but
// bytes.
var matrixBackends = []string{"strace", "sta2", "dxt"}

// Ingestion parallelism and window are fixed: artifacts are
// parallelism-independent, so an axis over them would add nothing.
const (
	matrixParallelism = 2
	matrixWindow      = 4
)

// matrixCell is one row of BENCH_matrix.json. The key fields (profile,
// backend, shards, scoped) identify the cell; the rest is structure.
type matrixCell struct {
	Profile string `json:"profile"`
	Backend string `json:"backend"`
	Shards  int    `json:"shards"`
	Scoped  bool   `json:"scoped"`

	Cases    int   `json:"cases"`
	Events   int   `json:"events"`
	Bytes    int64 `json:"bytes"`
	Variants int   `json:"variants"`
	Edges    int   `json:"edges"`
	Symbols  int   `json:"symbols"`
	// SnapshotBytes is the size of the cell's STS snapshot — the
	// canonical encoding of the fold's pre-Finalize state, so a size
	// change means the format or the aggregates changed.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Behavior-profile structure: distinct files touched, network
	// endpoints contacted and commands executed across the merged
	// profile; a drift here means the semantic decoders changed.
	BehaviorFiles    int `json:"behavior_files"`
	BehaviorHosts    int `json:"behavior_hosts"`
	BehaviorCommands int `json:"behavior_commands"`
}

func (c matrixCell) key() string {
	return fmt.Sprintf("%s/%s/s%d/scoped=%v", c.Profile, c.Backend, c.Shards, c.Scoped)
}

// matrixReport wraps the cells with the exact generation parameters,
// so the committed baseline documents its own reproduction command.
type matrixReport struct {
	Command string       `json:"command"`
	MCases  int          `json:"mcases"`
	MEvents int          `json:"mevents"`
	Shards  int          `json:"ashards"`
	Seed    int64        `json:"seed"`
	Cells   []matrixCell `json:"cells"`
}

// matrixParams are the baseline's generation parameters: 8 cases × 120
// events per profile, shard axis {1, 4}.
var matrixParams = matrixReport{
	Command: "go test ./cmd/stbench -run TestScenarioMatrix -update",
	MCases:  8,
	MEvents: 120,
	Shards:  4,
	Seed:    20240924,
}

// TestScenarioMatrix sweeps every profile × backend × shards (× scoped,
// for strace) cell and fails on any structural difference from
// BENCH_matrix.json, or on a cell missing from either side.
func TestScenarioMatrix(t *testing.T) {
	fresh := sweepMatrix(t, profiles.All(), matrixParams)
	if *updateMatrix {
		writeMatrix(t, matrixBaseline, fresh)
		t.Logf("wrote %s (%d cells)", matrixBaseline, len(fresh.Cells))
		return
	}
	for _, d := range diffMatrix(fresh, readMatrix(t, matrixBaseline)) {
		t.Error(d)
	}
}

// TestRunMatrixJSON sweeps every profile at tiny scale through the
// baseline file's write and read path and checks the report: its
// generation parameters survive, and it covers profile × backend ×
// shards (× scoped, for strace) once each with non-degenerate, correctly
// counted cells.
func TestRunMatrixJSON(t *testing.T) {
	params := matrixReport{Command: "tiny", MCases: 3, MEvents: 24, Shards: 2, Seed: 7}
	path := filepath.Join(t.TempDir(), "BENCH_matrix.json")
	writeMatrix(t, path, sweepMatrix(t, profiles.All(), params))
	report := readMatrix(t, path)
	if report.MCases != 3 || report.MEvents != 24 || report.Shards != 2 || report.Seed != 7 || report.Command != "tiny" {
		t.Errorf("report header not reproducible: %+v", report)
	}
	// strace cells come scoped and unscoped, the other backends' only
	// unscoped.
	wantCells := len(profiles.All()) * (len(matrixBackends) + 1) * 2 /*shards*/
	if len(report.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(report.Cells), wantCells)
	}
	keys := map[string]bool{}
	for _, c := range report.Cells {
		if keys[c.key()] {
			t.Errorf("duplicate cell %s", c.key())
		}
		keys[c.key()] = true
		if c.Cases < 1 || c.Events < 1 || c.Bytes < 1 || c.Variants < 1 || c.Edges < 1 || c.Symbols < 1 || c.SnapshotBytes < 1 {
			t.Errorf("cell %s has degenerate fields: %+v", c.key(), c)
		}
		if c.Backend == "dxt" {
			// The dump format carries only sized transfer calls.
			if c.Events >= 3*24 {
				t.Errorf("dxt cell %s delivered %d events, expected fewer than the full %d", c.key(), c.Events, 3*24)
			}
		} else if c.Events != 3*24 {
			t.Errorf("cell %s delivered %d events, want %d", c.key(), c.Events, 3*24)
		}
	}
}

// TestMatrixStructuralDeterminism: two sweeps at the same parameters
// agree on every structural field — the property that lets the gate
// compare a fresh sweep with the committed baseline.
func TestMatrixStructuralDeterminism(t *testing.T) {
	var ps []profiles.Profile
	for _, name := range []string{"hostileargs", "burst"} {
		p, ok := profiles.Lookup(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		ps = append(ps, p)
	}
	params := matrixReport{MCases: 3, MEvents: 20, Shards: 4, Seed: 11}
	a, b := sweepMatrix(t, ps, params), sweepMatrix(t, ps, params)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d structure not deterministic:\n %+v\n %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// TestRunMatrixAgainstSelf: a sweep compared with its own baseline file
// reports no difference — the gate's green path on an unchanged tree.
func TestRunMatrixAgainstSelf(t *testing.T) {
	params := matrixReport{MCases: 3, MEvents: 20, Shards: 2, Seed: 5}
	path := filepath.Join(t.TempDir(), "base.json")
	writeMatrix(t, path, sweepMatrix(t, heavytail(t), params))
	if d := diffMatrix(sweepMatrix(t, heavytail(t), params), readMatrix(t, path)); len(d) != 0 {
		t.Errorf("sweep differs from its own baseline: %v", d)
	}
}

// TestRunMatrixAgainstDiverged: the comparison rejects a baseline
// generated with other parameters, a changed structural value (also
// when tampered in the file), and a missing or extra cell.
func TestRunMatrixAgainstDiverged(t *testing.T) {
	params := matrixReport{MCases: 3, MEvents: 20, Shards: 2, Seed: 5}
	fresh := sweepMatrix(t, heavytail(t), params)
	mutate := func(f func(r *matrixReport)) matrixReport {
		r := fresh
		r.Cells = append([]matrixCell(nil), fresh.Cells...)
		f(&r)
		return r
	}
	path := filepath.Join(t.TempDir(), "base.json")
	writeMatrix(t, path, mutate(func(r *matrixReport) { r.Cells[0].Variants += 7 }))
	for name, base := range map[string]matrixReport{
		"parameters":    mutate(func(r *matrixReport) { r.MCases++ }),
		"changed value": mutate(func(r *matrixReport) { r.Cells[3].SnapshotBytes++ }),
		"tampered file": readMatrix(t, path),
		"missing cell":  mutate(func(r *matrixReport) { r.Cells = r.Cells[1:] }),
		"extra cell": mutate(func(r *matrixReport) {
			c := r.Cells[0]
			c.Shards = 9
			r.Cells = append(r.Cells, c)
		}),
	} {
		if d := diffMatrix(fresh, base); len(d) == 0 {
			t.Errorf("%s: diff reported no difference", name)
		}
	}
}

func heavytail(t *testing.T) []profiles.Profile {
	t.Helper()
	p, ok := profiles.Lookup("heavytail")
	if !ok {
		t.Fatal("no heavytail profile")
	}
	return []profiles.Profile{p}
}

// writeMatrix and readMatrix are the baseline file's encoding: indented
// JSON with a trailing newline.
func writeMatrix(t *testing.T, path string, r matrixReport) {
	t.Helper()
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readMatrix(t *testing.T, path string) matrixReport {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r matrixReport
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return r
}

// sweepMatrix runs every cell of ps × matrixBackends × {1, params.Shards},
// strace's over both the process-wide and a scoped string table, and
// checks the sweep's own invariants: the snapshot re-encodes
// byte-identically, structure does not depend on the shard count or
// the string table, and the archive matches strace in everything but
// bytes.
func sweepMatrix(t *testing.T, ps []profiles.Profile, params matrixReport) matrixReport {
	t.Helper()
	report := params
	report.Cells = nil
	mapping := pm.CallTopDirs{Depth: 2}
	for _, p := range ps {
		log := p.Generate("mx", params.MCases, params.MEvents, params.Seed)
		first := map[string]matrixCell{} // per backend: its first cell
		for _, backend := range matrixBackends {
			size, open := backendSource(t, backend, log)
			scopes := []bool{false}
			if backend == "strace" {
				// Only strace ingestion scopes a table: stserve's
				// sessions do.
				scopes = append(scopes, true)
			}
			for _, shards := range []int{1, params.Shards} {
				for _, scoped := range scopes {
					var syms *intern.Table
					if scoped {
						syms = intern.NewTable()
					}
					name := fmt.Sprintf("%s/%s shards=%d scoped=%v", p.Name, backend, shards, scoped)
					src := open(syms)
					res, err := core.AnalyzeStreamParallel(src, mapping, shards, true)
					src.Close()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					src = open(syms)
					snap, err := core.AnalyzeStreamSnapshot(src, mapping, shards, true)
					src.Close()
					if err != nil {
						t.Fatalf("%s snapshot fold: %v", name, err)
					}
					enc := snapshot.Encode(snap)
					spath := filepath.Join(t.TempDir(), "fold.sts")
					if err := snapshot.WriteFile(spath, snap); err != nil {
						t.Fatalf("%s snapshot write: %v", name, err)
					}
					dec, err := snapshot.ReadFile(spath, mapping)
					if err != nil {
						t.Fatalf("%s snapshot decode: %v", name, err)
					}
					if !bytes.Equal(snapshot.Encode(dec), enc) {
						t.Fatalf("%s: snapshot re-encode is not byte-identical", name)
					}
					bFiles, bHosts, bCmds := res.Behavior.Totals()
					cell := matrixCell{
						Profile:          p.Name,
						Backend:          backend,
						Shards:           shards,
						Scoped:           scoped,
						Cases:            res.Cases,
						Events:           res.Events,
						Bytes:            size,
						Variants:         res.ActivityLog.NumVariants(),
						Edges:            res.DFG.NumEdges(),
						Symbols:          res.Symbols,
						SnapshotBytes:    int64(len(enc)),
						BehaviorFiles:    bFiles,
						BehaviorHosts:    bHosts,
						BehaviorCommands: bCmds,
					}
					ref, seen := first[backend]
					if !seen {
						first[backend], ref = cell, cell
					}
					if structure(cell) != structure(ref) {
						t.Errorf("%s: structure differs from %s:\n  %+v\n  %+v", name, ref.key(), structure(cell), structure(ref))
					}
					if backend == "sta2" {
						got, want := structure(cell), structure(first["strace"])
						got.Bytes, want.Bytes = 0, 0
						if got != want {
							t.Errorf("%s: archive structure differs from strace:\n  %+v\n  %+v", name, got, want)
						}
					}
					report.Cells = append(report.Cells, cell)
				}
			}
		}
	}
	return report
}

// structure is a cell without its key: what must not depend on the
// shard count or the string table.
func structure(c matrixCell) matrixCell {
	c.Profile, c.Backend, c.Shards, c.Scoped = "", "", 0, false
	return c
}

// backendSource encodes the log in one backend's format and returns its
// byte size plus an opener that builds a fresh source per cell. A
// strace source interns over syms when non-nil; every other source, and
// strace's with syms nil, over the process-wide table.
func backendSource(t *testing.T, backend string, log *trace.EventLog) (int64, func(syms *intern.Table) source.Source) {
	t.Helper()
	var buf bytes.Buffer
	switch backend {
	case "strace":
		fsys := fstest.MapFS{}
		var size int64
		for _, c := range log.Cases() {
			buf.Reset()
			if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
				t.Fatal(err)
			}
			fsys[c.ID.FileName()] = &fstest.MapFile{Data: bytes.Clone(buf.Bytes())}
			size += int64(buf.Len())
		}
		return size, func(syms *intern.Table) source.Source {
			src, err := strace.StreamFS(fsys, ".", strace.Options{
				Strict: true, Parallelism: matrixParallelism, Window: matrixWindow, Syms: syms,
			})
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	case "sta2":
		path := filepath.Join(t.TempDir(), "log.sta")
		if err := archive.WriteFileV2(path, log); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size(), func(*intern.Table) source.Source {
			src, err := archive.OpenSource(path, archive.Options{
				Parallelism: matrixParallelism, Window: matrixWindow,
			})
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	case "dxt":
		if _, err := synth.WriteDXT(&buf, log); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return int64(len(data)), func(*intern.Table) source.Source {
			recs, err := dxt.Parse(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return dxt.Stream("mx", recs, matrixParallelism, matrixWindow)
		}
	}
	t.Fatalf("unknown backend %q", backend)
	return 0, nil
}

// diffMatrix lists every difference between a fresh sweep and a
// baseline: generation parameters, changed structure, and cells missing
// from either side.
func diffMatrix(fresh, base matrixReport) []string {
	if base.MCases != fresh.MCases || base.MEvents != fresh.MEvents ||
		base.Seed != fresh.Seed || base.Shards != fresh.Shards {
		return []string{fmt.Sprintf("baseline generated with different parameters (%d cases × %d events, shards %d, seed %d); regenerate with: %s",
			base.MCases, base.MEvents, base.Shards, base.Seed, fresh.Command)}
	}
	baseByKey := make(map[string]matrixCell, len(base.Cells))
	for _, c := range base.Cells {
		baseByKey[c.key()] = c
	}
	var diffs []string
	for _, f := range fresh.Cells {
		b, ok := baseByKey[f.key()]
		delete(baseByKey, f.key())
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: not in the baseline", f.key()))
		case f != b:
			diffs = append(diffs, fmt.Sprintf("%s: structure diverged\n  baseline %+v\n  fresh    %+v", f.key(), structure(b), structure(f)))
		}
	}
	var missing []string
	for k := range baseByKey {
		missing = append(missing, fmt.Sprintf("%s: missing from the fresh sweep", k))
	}
	sort.Strings(missing)
	return append(diffs, missing...)
}
