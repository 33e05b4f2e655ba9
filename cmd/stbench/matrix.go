package main

// The scenario matrix (-matrix): sweep every generator profile through
// every ingestion backend at one and many analysis shards, scoped and
// process-wide symbol tables, and record one JSON row per cell. The
// generators are deterministic in (profile, cid, cases, events, seed)
// and the pipeline's artifacts are parallelism-independent, so a cell's
// structural fields (cases, events, bytes, variants, edges, symbols,
// snapshot size) are machine-independent and diffable across commits;
// the timing
// fields are informational trajectory. -against diffs a fresh sweep
// over a committed baseline: timing drift is reported but never fails,
// a structural divergence (behavior change) does.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing/fstest"
	"time"

	"stinspector/internal/archive"
	"stinspector/internal/core"
	"stinspector/internal/dxt"
	"stinspector/internal/intern"
	"stinspector/internal/pm"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// matrixBackends is the backend axis. Ingestion parallelism and window
// are fixed: artifacts are parallelism-independent, so the axis would
// only add timing noise. "sta2" is the STA archive (named for its
// format version, so cells compare across commits) and must produce
// cells structurally identical to the strace cells of the same profile
// (that identity is what -against gates).
var matrixBackends = []string{"strace", "sta2", "dxt"}

const (
	matrixParallelism = 2
	matrixWindow      = 4
)

// matrixCell is one row of BENCH_matrix.json. The key fields
// (profile, backend, shards, scoped) identify the cell; cases through
// symbols are deterministic structure; the rest is timing trajectory.
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
	// canonical encoding of the fold's pre-Finalize state, so it is
	// structural: a size change means the format or the aggregates
	// changed.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Behavior-profile structure: distinct files touched, network
	// endpoints contacted and commands executed across the merged
	// profile. Deterministic per cell like the other structural fields,
	// so a drift here means the semantic decoders changed.
	BehaviorFiles    int `json:"behavior_files"`
	BehaviorHosts    int `json:"behavior_hosts"`
	BehaviorCommands int `json:"behavior_commands"`

	WallNS         int64   `json:"wall_ns"`
	EventsPerS     float64 `json:"events_per_s"`
	MBPerS         float64 `json:"mb_per_s"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	SnapEncNS      int64   `json:"snap_enc_ns"`
	SnapDecNS      int64   `json:"snap_dec_ns"`
}

func (c matrixCell) key() string {
	return fmt.Sprintf("%s/%s/s%d/scoped=%v", c.Profile, c.Backend, c.Shards, c.Scoped)
}

// matrixReport wraps the cells with the exact generation parameters,
// so the committed baseline documents its own reproduction invocation.
type matrixReport struct {
	Command string       `json:"command"`
	MCases  int          `json:"mcases"`
	MEvents int          `json:"mevents"`
	Shards  int          `json:"ashards"`
	Seed    int64        `json:"seed"`
	Cells   []matrixCell `json:"cells"`
}

// matrixProfiles resolves the -profiles selector (empty = all).
func matrixProfiles(csv string) ([]profiles.Profile, error) {
	if csv == "" {
		return profiles.All(), nil
	}
	var ps []profiles.Profile
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		p, ok := profiles.Lookup(name)
		if !ok {
			return nil, usagef("unknown profile %q in -profiles (have %v)", name, profiles.Names())
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// backendSource prepares one backend's encoded form of the log and
// returns its byte size plus an opener that builds a fresh source per
// cell (over syms when scoped, the process-wide table otherwise).
func backendSource(backend string, log *trace.EventLog) (int64, func(syms *intern.Table) (source.Source, error), error) {
	switch backend {
	case "strace":
		fsys := fstest.MapFS{}
		var size int64
		for _, c := range log.Cases() {
			var buf bytes.Buffer
			if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
				return 0, nil, err
			}
			fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
			size += int64(buf.Len())
		}
		return size, func(syms *intern.Table) (source.Source, error) {
			return strace.StreamFS(fsys, ".", strace.Options{
				Strict: true, Parallelism: matrixParallelism, Window: matrixWindow, Syms: syms,
			})
		}, nil
	case "sta2":
		var buf bytes.Buffer
		if err := archive.WriteV2(&buf, log); err != nil {
			return 0, nil, err
		}
		data := buf.Bytes()
		return int64(len(data)), func(syms *intern.Table) (source.Source, error) {
			// NewReaderBytes decodes the columnar sections zero-copy from
			// data — the in-memory equivalent of the mmap path Open takes.
			r, err := archive.NewReaderBytes(data)
			if err != nil {
				return nil, err
			}
			r.SetSyms(syms)
			return r.Stream(matrixParallelism, matrixWindow), nil
		}, nil
	case "dxt":
		var buf bytes.Buffer
		if _, err := dxt.Write(&buf, log); err != nil {
			return 0, nil, err
		}
		data := buf.Bytes()
		return int64(len(data)), func(syms *intern.Table) (source.Source, error) {
			var (
				recs []dxt.Record
				err  error
			)
			if syms != nil {
				recs, err = dxt.ParseSyms(bytes.NewReader(data), syms)
			} else {
				recs, err = dxt.Parse(bytes.NewReader(data))
			}
			if err != nil {
				return nil, err
			}
			return dxt.Stream("mx", recs, matrixParallelism, matrixWindow), nil
		}, nil
	default:
		return 0, nil, fmt.Errorf("unknown backend %q", backend)
	}
}

// matrixBench runs the sweep and handles -json/-against.
func matrixBench(profilesCSV string, mcases, mevents, ashards int, seed int64, jsonPath, against string) error {
	if mcases < 1 || mevents < 1 {
		return usagef("-mcases and -mevents must be at least 1")
	}
	ps, err := matrixProfiles(profilesCSV)
	if err != nil {
		return err
	}
	shardAxis := []int{1}
	if ashards > 1 {
		shardAxis = append(shardAxis, ashards)
	}

	report := matrixReport{
		Command: fmt.Sprintf("stbench -matrix -mcases %d -mevents %d -ashards %d -seed %d -json BENCH_matrix.json",
			mcases, mevents, ashards, seed),
		MCases:  mcases,
		MEvents: mevents,
		Shards:  ashards,
		Seed:    seed,
	}

	fmt.Printf("%-12s %-8s %6s %-7s %7s %8s %9s %8s %6s %9s %6s %6s %6s %12s %14s\n",
		"PROFILE", "BACKEND", "SHARDS", "SCOPED", "CASES", "EVENTS", "BYTES", "VARIANTS", "EDGES", "SNAPSHOT", "BFILE", "BHOST", "BCMD", "WALL", "ALLOCS/EVENT")
	for _, p := range ps {
		log := p.Generate("mx", mcases, mevents, seed)
		for _, backend := range matrixBackends {
			size, open, err := backendSource(backend, log)
			if err != nil {
				return fmt.Errorf("%s/%s: %v", p.Name, backend, err)
			}
			for _, shards := range shardAxis {
				for _, scoped := range []bool{false, true} {
					var syms *intern.Table
					if scoped {
						syms = intern.NewTable()
					}
					var res *core.StreamResult
					wall, allocs, err := measured(func() error {
						src, err := open(syms)
						if err != nil {
							return err
						}
						defer src.Close()
						res, err = core.AnalyzeStreamParallel(src, pm.CallTopDirs{Depth: 2}, shards, true)
						return err
					})
					if err != nil {
						return fmt.Errorf("%s/%s shards=%d scoped=%v: %v", p.Name, backend, shards, scoped, err)
					}
					// Snapshot leg: fold the same cell into its durable
					// STS form and time the encode/decode round trip;
					// the re-encode must reproduce the bytes (canonical
					// encoding), and the size lands in the structural
					// diff.
					snapSrc, err := open(syms)
					if err != nil {
						return fmt.Errorf("%s/%s shards=%d scoped=%v snapshot: %v", p.Name, backend, shards, scoped, err)
					}
					snap, err := core.AnalyzeStreamSnapshot(snapSrc, pm.CallTopDirs{Depth: 2}, shards, true)
					snapSrc.Close()
					if err != nil {
						return fmt.Errorf("%s/%s shards=%d scoped=%v snapshot fold: %v", p.Name, backend, shards, scoped, err)
					}
					t0 := time.Now()
					enc := snapshot.Encode(snap)
					encNS := time.Since(t0).Nanoseconds()
					t0 = time.Now()
					dec, err := snapshot.Decode(enc, pm.CallTopDirs{Depth: 2})
					decNS := time.Since(t0).Nanoseconds()
					if err != nil {
						return fmt.Errorf("%s/%s shards=%d scoped=%v snapshot decode: %v", p.Name, backend, shards, scoped, err)
					}
					if !bytes.Equal(snapshot.Encode(dec), enc) {
						return fmt.Errorf("%s/%s shards=%d scoped=%v: snapshot re-encode is not byte-identical", p.Name, backend, shards, scoped)
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
						WallNS:           wall.Nanoseconds(),
						EventsPerS:       float64(res.Events) / wall.Seconds(),
						MBPerS:           float64(size) / 1e6 / wall.Seconds(),
						AllocsPerEvent:   float64(allocs) / float64(res.Events),
						SnapEncNS:        encNS,
						SnapDecNS:        decNS,
					}
					report.Cells = append(report.Cells, cell)
					fmt.Printf("%-12s %-8s %6d %-7v %7d %8d %9d %8d %6d %9d %6d %6d %6d %12v %14.3f\n",
						cell.Profile, cell.Backend, cell.Shards, cell.Scoped,
						cell.Cases, cell.Events, cell.Bytes, cell.Variants, cell.Edges,
						cell.SnapshotBytes, cell.BehaviorFiles, cell.BehaviorHosts, cell.BehaviorCommands,
						time.Duration(cell.WallNS).Round(time.Microsecond), cell.AllocsPerEvent)
				}
			}
		}
	}

	if jsonPath != "" {
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", jsonPath, len(report.Cells))
	}
	if against != "" {
		return diffMatrix(report, against)
	}
	return nil
}

// pct renders a relative timing delta.
func pct(fresh, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (fresh-base)/base*100)
}

// diffMatrix compares a fresh sweep against a committed baseline.
// Timing drift is always informational (machines differ; CI runs this
// non-blocking). A structural divergence — different case/event/byte
// counts, variants, edges or resident symbols for the same cell key —
// means generator or pipeline behavior changed, and fails the run so
// the log flags it even where the CI step itself is continue-on-error.
func diffMatrix(fresh matrixReport, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("-against: %v", err)
	}
	var base matrixReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("-against %s: %v", baselinePath, err)
	}
	if base.MCases != fresh.MCases || base.MEvents != fresh.MEvents ||
		base.Seed != fresh.Seed || base.Shards != fresh.Shards {
		return fmt.Errorf("-against %s: baseline was generated with different parameters (%s); regenerate with: %s",
			baselinePath, base.Command, base.Command)
	}

	baseByKey := make(map[string]matrixCell, len(base.Cells))
	for _, c := range base.Cells {
		baseByKey[c.key()] = c
	}
	fmt.Printf("\ndiff against %s (%s)\n", baselinePath, base.Command)
	fmt.Printf("%-42s %10s %10s %13s  %s\n", "CELL", "WALL", "EV/S", "ALLOCS/EV", "STRUCTURE")

	var structural []string
	seen := make(map[string]bool, len(fresh.Cells))
	for _, f := range fresh.Cells {
		k := f.key()
		seen[k] = true
		b, ok := baseByKey[k]
		if !ok {
			fmt.Printf("%-42s %s\n", k, "new cell (not in baseline)")
			continue
		}
		structure := "ok"
		if f.Cases != b.Cases || f.Events != b.Events || f.Bytes != b.Bytes ||
			f.Variants != b.Variants || f.Edges != b.Edges || f.Symbols != b.Symbols ||
			f.SnapshotBytes != b.SnapshotBytes ||
			f.BehaviorFiles != b.BehaviorFiles || f.BehaviorHosts != b.BehaviorHosts ||
			f.BehaviorCommands != b.BehaviorCommands {
			structure = fmt.Sprintf("DIVERGED cases %d→%d events %d→%d bytes %d→%d variants %d→%d edges %d→%d symbols %d→%d snapshot %d→%d bfiles %d→%d bhosts %d→%d bcmds %d→%d",
				b.Cases, f.Cases, b.Events, f.Events, b.Bytes, f.Bytes,
				b.Variants, f.Variants, b.Edges, f.Edges, b.Symbols, f.Symbols,
				b.SnapshotBytes, f.SnapshotBytes,
				b.BehaviorFiles, f.BehaviorFiles, b.BehaviorHosts, f.BehaviorHosts,
				b.BehaviorCommands, f.BehaviorCommands)
			structural = append(structural, k)
		}
		fmt.Printf("%-42s %10s %10s %+13.3f  %s\n", k,
			pct(float64(f.WallNS), float64(b.WallNS)),
			pct(f.EventsPerS, b.EventsPerS),
			f.AllocsPerEvent-b.AllocsPerEvent,
			structure)
	}
	var missing []string
	for k := range baseByKey {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		fmt.Printf("%-42s %s\n", k, "missing from fresh run")
	}

	if len(structural) > 0 || len(missing) > 0 {
		return fmt.Errorf("matrix diverged from %s: %d cells changed structure, %d missing",
			baselinePath, len(structural), len(missing))
	}
	fmt.Printf("structure identical across %d cells; timing deltas above are informational\n", len(fresh.Cells))
	return nil
}
