package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runDiff compares two sets of -json result files, each a comma-separated
// list, metric by metric and workload by workload. Each side is
// summarized by the median and quartiles of its runs. An end-to-end
// metric is "unresolved" when either side's spread (quartile distance
// over median) exceeds the metric's bound from BENCHMARK.json, and
// otherwise "worse" or "better" when B's median moved past the bound in
// that direction, else "within". It reports whether anything was worse.
func runDiff(w io.Writer, a, b string) (bool, error) {
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	as, err := loadResults(a)
	if err != nil {
		return false, err
	}
	bs, err := loadResults(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-18s %-26s %5s %-34s %-34s %6s  %s\n", "WORKLOAD", "METRIC", "RUNS", "A  q1 / median / q3", "B  q1 / median / q3", "BOUND", "VERDICT")
	worse := false
	for _, wl := range sp.Workloads {
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			va, vb := values(as, wl.Name, m.Name), values(bs, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			verdict, bound := "-", "-"
			if m.Bound > 0 {
				verdict = judge(m, qa, qb)
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
			}
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "%-18s %-26s %2d/%-2d %-34s %-34s %6s  %s\n", wl.Name, m.Name, len(va), len(vb),
				fmtQuartiles(qa), fmtQuartiles(qb), bound, verdict)
		}
	}
	return worse, nil
}

func loadResults(list string) ([]result, error) {
	var all []result
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs []result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, rs...)
	}
	return all, nil
}

func values(rs []result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns q1, median, q3 by the method of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), so spreads read
// the same here as in any external check of the benchmark.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g / %.4g / %.4g", q[0], q[1], q[2])
}

func spread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[0] == q[2] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func judge(m specMetric, a, b [3]float64) string {
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return "unresolved"
	}
	if a[1] == 0 {
		if b[1] == 0 {
			return "within"
		}
		return "unresolved"
	}
	change := (b[1] - a[1]) / math.Abs(a[1]) // positive: B is higher
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "within"
}
