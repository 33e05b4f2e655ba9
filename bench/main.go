// Command bench is the repository's benchmark. For each workload it
// runs two child processes: a setup child that generates the inputs from
// the seed and writes them to disk (timed, several times), and a measure
// child that sees only those files, warms up, and measures the program
// on them with tracing off — or, with -trace 1, runs one traced pass
// that breaks the work down by layer. Every output is checked against an
// oracle the setup child computed through the in-memory path.
//
//	go run . -workload NAME|all -seed N -seconds S [-trace 0|1] [-spans FILE] [-json FILE]
//	go run . -diff A.json[,A2.json...] B.json[,B2.json...]
//
// Run it from the repository root (bench/run.sh does), where it reads
// BENCHMARK.json and keeps its inputs and build under .bench_build/.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupRuns is how many times setup runs per workload; setup_s is the
// median of their wall times.
const setupRuns = 3

// workRoot holds every workload's generated inputs while it runs.
var workRoot = filepath.Join(".bench_build", "work")

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the measure child measures, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	jsonOut := fs.String("json", "", "also write the results to this JSON file (input of -diff)")
	diff := fs.Bool("diff", false, "compare two sets of -json result files given as arguments")
	role := fs.String("role", "", "internal: setup or measure, for the child processes")
	dir := fs.String("dir", "", "internal: the workload's data directory, for the child processes")
	toy := fs.Bool("toy", false, "internal: toy input sizes, for the self-test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -diff needs two result sets: A.json[,...] B.json[,...]")
			return 2
		}
		var worse bool
		worse, err = runDiff(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err == nil && worse {
			return 1
		}
	case *role == "setup":
		err = childSetup(*name, *dir, *seed, *seconds, *toy)
	case *role == "measure":
		err = childMeasure(*name, *dir, *seconds, *traced == 1, *spansOut)
	case *role != "":
		err = fmt.Errorf("unknown role %q", *role)
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	default:
		var ok bool
		ok, err = runParent(*name, *seed, *seconds, *traced == 1, *spansOut, *jsonOut, *toy)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// ---- child processes ----

func oraclePath(dir string) string { return filepath.Join(dir, "oracle.json") }

func childSetup(name, dir string, seed int64, seconds int, toy bool) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	sz := fullSize
	if toy {
		sz = toySize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	o, err := w.setup(dir, seed, seconds, sz)
	if err != nil {
		return err
	}
	data, err := json.Marshal(o)
	if err != nil {
		return err
	}
	return os.WriteFile(oraclePath(dir), data, 0o644)
}

func readOracle(dir string) (oracle, error) {
	var o oracle
	data, err := os.ReadFile(oraclePath(dir))
	if err != nil {
		return o, err
	}
	return o, json.Unmarshal(data, &o)
}

func childMeasure(name, dir string, seconds int, traced bool, spansOut string) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	o, err := readOracle(dir)
	if err != nil {
		return err
	}
	var rep report
	if traced {
		rec := newRecorder()
		rep, err = w.trace(dir, o, rec)
		if err == nil && spansOut != "" {
			err = rec.writeSpans(spansOut)
		}
	} else {
		rep, err = w.measure(dir, o, seconds)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func newReport() report { return report{Metrics: make(map[string]float64)} }

// child runs this executable in a role, with GOMAXPROCS fixed so every
// machine runs the program with the parallelism it was tuned for. It
// returns the child's standard output, wall time and resource usage.
func child(timeout time.Duration, args ...string) ([]byte, time.Duration, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// A child must not outlive a parent that was killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("%s child: %w", args[1], err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return out.Bytes(), wall, ru, nil
}

// ---- parent ----

// result is one workload's outcome, as printed and as written by -json.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Raw and HostFactor record the CPU-bound metrics before they were
	// scaled to the reference host speed (see calib.go).
	Raw        map[string]float64 `json:"raw,omitempty"`
	HostFactor float64            `json:"host_factor,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(name string, seed int64, seconds int, traced bool, spansOut, jsonOut string, toy bool) (bool, error) {
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	var sel []string
	for _, w := range workloads {
		if name == "all" || name == w.name {
			sel = append(sel, w.name)
		}
	}
	if len(sel) == 0 {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	var results []result
	for _, wname := range sel {
		spans := spansOut
		if spans != "" && len(sel) > 1 {
			spans = filepath.Join(filepath.Dir(spans), wname+"."+filepath.Base(spans))
		}
		res, err := runWorkload(sp, wname, seed, seconds, traced, spans, toy)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wname, err)
		}
		for _, m := range sp.metrics(traced) {
			fmt.Printf("%s %s %s %s\n", wname, m.Name, formatValue(res.Metrics[m.Name].Value), m.Unit)
		}
		results = append(results, res)
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	last := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range results {
		last.Correct = last.Correct && r.Correct
		last.Attempted += r.Attempted
		last.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "." + k
			}
			last.Metrics[k] = v
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return last.Correct, nil
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// runWorkload generates the workload's inputs setupRuns times (once when
// traced), then runs the measure child on the last copy.
func runWorkload(sp spec, name string, seed int64, seconds int, traced bool, spansOut string, toy bool) (result, error) {
	res := result{Workload: name, Seed: seed, Seconds: seconds, Metrics: make(map[string]metricValue)}
	if traced {
		res.Trace = 1
	}
	dir := filepath.Join(workRoot, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(dir)
	setupArgs := []string{"-role", "setup", "-workload", name, "-dir", dir,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-toy=" + strconv.FormatBool(toy)}
	runs := setupRuns
	if traced {
		runs = 1
	}
	var walls []float64
	var digest string
	for i := 0; i < runs; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
		_, wall, _, err := child(3*time.Minute, setupArgs...)
		if err != nil {
			return res, err
		}
		o, err := readOracle(dir)
		if err != nil {
			return res, err
		}
		if i > 0 && o.Digest != digest {
			return res, errors.New("setup is not deterministic: two runs from one seed gave different oracles")
		}
		digest = o.Digest
		walls = append(walls, wall.Seconds())
	}

	measureArgs := []string{"-role", "measure", "-workload", name, "-dir", dir,
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(res.Trace)}
	if spansOut != "" {
		abs, err := filepath.Abs(spansOut)
		if err != nil {
			return res, err
		}
		measureArgs = append(measureArgs, "-spans", abs)
	}
	out, _, ru, err := child(time.Duration(seconds)*time.Second+3*time.Minute, measureArgs...)
	if err != nil {
		return res, err
	}
	var rep report
	if err := json.Unmarshal(out, &rep); err != nil {
		return res, fmt.Errorf("measure child output: %w", err)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
	}
	// Setup is partly disk writes, so setup_s is not scaled to the
	// reference host speed.
	if !traced {
		rep.Metrics["setup_s"] = quantile(walls, 0.5)
		rep.Metrics["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	res.Raw, res.HostFactor = rep.Raw, rep.HostFactor
	res.Attempted, res.Failed = rep.Attempted, rep.Failed
	res.Correct = rep.Failed == 0 && rep.Attempted > 0
	want := sp.metrics(traced)
	known := make(map[string]bool, len(want))
	for _, m := range want {
		known[m.Name] = true
		v, ok := rep.Metrics[m.Name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s not measured", m.Name)
		}
		// A layer the workload does not exercise reads 0.
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for k := range rep.Metrics {
		if !known[k] {
			return res, fmt.Errorf("metric %s is not listed in BENCHMARK.json", k)
		}
	}
	return res, nil
}

// ---- BENCHMARK.json ----

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func (s spec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// loadSpec reads BENCHMARK.json from the repository root, the working
// directory the benchmark runs in.
func loadSpec() (spec, error) {
	var s spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// ---- statistics ----

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
