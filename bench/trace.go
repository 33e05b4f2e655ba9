package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one traced pass share an Iter; a root has Parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
}

// recorder keeps spans in memory for one goroutine. A nil recorder
// records nothing, so the same code runs traced and untraced.
type recorder struct {
	t0     time.Time
	iter   int
	spans  []span
	open   []int
	allocs map[string]uint64 // heap objects allocated, by phase
	mark   uint64
	// counting is the time spent counting allocations, by pass: the
	// recorder's own cost, left out of the pass's coverage.
	counting map[int]time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), allocs: make(map[string]uint64), counting: make(map[int]time.Duration)}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.iter++
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Iter: r.iter})
	r.open = append(r.open, len(r.spans)-1)
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(time.Since(r.t0))
}

// allocStart and allocStop count the heap objects allocated by a phase.
// They stop the world, so they bracket whole phases, never single cases.
func (r *recorder) allocStart() {
	if r != nil {
		t0 := time.Now()
		r.mark = mallocs()
		r.counting[r.iter] += time.Since(t0)
	}
}

func (r *recorder) allocStop(phase string) {
	if r != nil {
		t0 := time.Now()
		r.allocs[phase] += mallocs() - r.mark
		r.counting[r.iter] += time.Since(t0)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rootTotals is the self time of every span under one root, by name,
// plus the root's own duration and the recorder's cost inside it. Self
// time is a span's duration minus the time its direct children cover.
type rootTotals struct {
	wall, counting time.Duration
	self           map[string]time.Duration
}

func (r *recorder) totals(root string) rootTotals {
	t := rootTotals{self: make(map[string]time.Duration)}
	iter := -1
	for _, s := range r.spans {
		if s.Parent == -1 && s.Name == root {
			iter = s.Iter
			t.wall = time.Duration(s.End - s.Start)
		}
	}
	t.counting = r.counting[iter]
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Iter == iter && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		if s.Iter == iter && s.Parent >= 0 {
			t.self[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return t
}

// layers are the stinspector modules spans are attributed to, by the
// prefix of the span name.
var layers = []string{"strace", "archive", "source", "pm", "dfg", "stats", "behavior", "core", "snapshot", "render", "serve"}

// coverage is the share of the root's wall time, less the recorder's
// own allocation counting, that layer self times account for; the rest
// is the benchmark's own glue.
func (t rootTotals) coverage() float64 {
	if t.wall <= t.counting {
		return 0
	}
	var covered time.Duration
	for name, d := range t.self {
		layer, _, _ := strings.Cut(name, ".")
		for _, l := range layers {
			if l == layer {
				covered += d
			}
		}
	}
	return float64(covered) / float64(t.wall-t.counting)
}

func (r *recorder) writeSpans(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replayLayers fills the span-derived per-layer metrics of a replay.
func replayLayers(m map[string]float64, t rootTotals, rc replayCounts) {
	sec := func(name string) float64 { return t.self[name].Seconds() }
	m["strace.parse_s"] = sec("strace.parse")
	if s := sec("strace.parse"); s > 0 {
		m["strace.mb_per_s"] = float64(rc.parsedBytes) / 1e6 / s
	}
	m["source.wait_s"] = sec("source.wait")
	m["pm.map_s"] = sec("pm.map")
	m["pm.add_s"] = sec("pm.add")
	m["pm.finalize_s"] = sec("pm.finalize")
	m["pm.build_s"] = sec("pm.build")
	m["pm.variants"] = float64(rc.variants)
	m["dfg.add_s"] = sec("dfg.add")
	m["dfg.finalize_s"] = sec("dfg.finalize")
	m["dfg.build_s"] = sec("dfg.build")
	m["dfg.classify_s"] = sec("dfg.classify")
	m["dfg.edges"] = float64(rc.edges)
	m["stats.add_s"] = sec("stats.add")
	m["stats.finalize_s"] = sec("stats.finalize")
	m["behavior.add_s"] = sec("behavior.add")
	m["behavior.subjects"] = float64(rc.subjects)
	m["core.snapshot_s"] = sec("core.snapshot")
	m["snapshot.merge_s"] = sec("snapshot.merge")
	m["snapshot.encode_s"] = sec("snapshot.encode")
	m["snapshot.write_s"] = sec("snapshot.write")
	m["snapshot.decode_s"] = sec("snapshot.decode")
	m["snapshot.epochs"] = float64(rc.epochs)
	m["snapshot.bytes"] = float64(len(rc.finalBytes))
	if len(rc.finalBytes) > 0 {
		m["snapshot.write_amp"] = float64(rc.written) / float64(len(rc.finalBytes))
	}
	m["render.text_s"] = sec("render.text")
	m["render.bytes"] = float64(rc.rendered)
	m["trace.coverage"] = t.coverage()
}
