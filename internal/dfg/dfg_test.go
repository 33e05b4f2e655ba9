package dfg

import (
	"math/rand"
	"testing"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

func ev(call, fp string, start time.Duration) trace.Event {
	return trace.Event{Call: call, FP: fp, Start: start, Dur: 10 * time.Microsecond, Size: 1}
}

// Figure 2a: ls.
func fig2aEvents() []trace.Event {
	return []trace.Event{
		ev("read", "/usr/lib/x86_64-linux-gnu/libselinux.so.1", 1),
		ev("read", "/usr/lib/x86_64-linux-gnu/libc.so.6", 2),
		ev("read", "/usr/lib/x86_64-linux-gnu/libpcre2-8.so.0.10.4", 3),
		ev("read", "/proc/filesystems", 4),
		ev("read", "/proc/filesystems", 5),
		ev("read", "/etc/locale.alias", 6),
		ev("read", "/etc/locale.alias", 7),
		ev("write", "/dev/pts/7", 8),
	}
}

// Figure 2b: ls -l.
func fig2bEvents() []trace.Event {
	return []trace.Event{
		ev("read", "/usr/lib/x86_64-linux-gnu/libselinux.so.1", 1),
		ev("read", "/usr/lib/x86_64-linux-gnu/libc.so.6", 2),
		ev("read", "/usr/lib/x86_64-linux-gnu/libpcre2-8.so.0.10.4", 3),
		ev("read", "/proc/filesystems", 4),
		ev("read", "/proc/filesystems", 5),
		ev("read", "/etc/locale.alias", 6),
		ev("read", "/etc/locale.alias", 7),
		ev("read", "/etc/nsswitch.conf", 8),
		ev("read", "/etc/nsswitch.conf", 9),
		ev("read", "/etc/passwd", 10),
		ev("read", "/etc/group", 11),
		ev("write", "/dev/pts/7", 12),
		ev("read", "/usr/share/zoneinfo/Europe/Berlin", 13),
		ev("read", "/usr/share/zoneinfo/Europe/Berlin", 14),
		ev("write", "/dev/pts/7", 15),
		ev("write", "/dev/pts/7", 16),
		ev("write", "/dev/pts/7", 17),
	}
}

func logA(t *testing.T) *trace.EventLog {
	t.Helper()
	var cases []*trace.Case
	for _, rid := range []int{9042, 9043, 9045} {
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "a", Host: "host1", RID: rid}, fig2aEvents()))
	}
	return trace.MustNewEventLog(cases...)
}

func logB(t *testing.T) *trace.EventLog {
	t.Helper()
	var cases []*trace.Case
	for _, rid := range []int{9157, 9158, 9160} {
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "b", Host: "host1", RID: rid}, fig2bEvents()))
	}
	return trace.MustNewEventLog(cases...)
}

func buildGraph(t *testing.T, el *trace.EventLog) *Graph {
	t.Helper()
	return Build(pm.Build(el, pm.CallTopDirs{Depth: 2}, pm.BuildOptions{Endpoints: true}))
}

// TestFig3bEdges checks every edge count of Figure 3b, the DFG of
// G[L_f̂(C_a)].
func TestFig3bEdges(t *testing.T) {
	g := buildGraph(t, logA(t))
	want := map[Edge]int{
		{pm.Start, "read:/usr/lib"}:                          3,
		{"read:/usr/lib", "read:/usr/lib"}:                   6,
		{"read:/usr/lib", "read:/proc/filesystems"}:          3,
		{"read:/proc/filesystems", "read:/proc/filesystems"}: 3,
		{"read:/proc/filesystems", "read:/etc/locale.alias"}: 3,
		{"read:/etc/locale.alias", "read:/etc/locale.alias"}: 3,
		{"read:/etc/locale.alias", "write:/dev/pts"}:         3,
		{"write:/dev/pts", pm.End}:                           3,
	}
	if g.NumEdges() != len(want) {
		t.Errorf("edges = %d, want %d\n%s", g.NumEdges(), len(want), g)
	}
	for e, c := range want {
		if got := g.EdgeCount(e); got != c {
			t.Errorf("edge %s = %d, want %d", e, got, c)
		}
	}
	// Node counts: 4 activities + start/end.
	if g.NumNodes() != 6 {
		t.Errorf("nodes = %d, want 6", g.NumNodes())
	}
	if got := g.nodes["read:/usr/lib"]; got != 9 {
		t.Errorf("read:/usr/lib count = %d, want 9", got)
	}
	if got := g.nodes[pm.Start]; got != 3 {
		t.Errorf("start count = %d, want 3", got)
	}
}

// TestFig3cEdges checks the distinguishing edges of Figure 3c
// (G[L_f̂(C_b)], the ls -l DFG).
func TestFig3cEdges(t *testing.T) {
	g := buildGraph(t, logB(t))
	checks := map[Edge]int{
		{"read:/etc/locale.alias", "read:/etc/nsswitch.conf"}: 3,
		{"read:/etc/nsswitch.conf", "read:/etc/passwd"}:       3,
		{"read:/etc/passwd", "read:/etc/group"}:               3,
		{"read:/etc/group", "write:/dev/pts"}:                 3,
		{"write:/dev/pts", "read:/usr/share"}:                 3,
		{"read:/usr/share", "read:/usr/share"}:                3,
		{"read:/usr/share", "write:/dev/pts"}:                 3,
		{"write:/dev/pts", "write:/dev/pts"}:                  6,
		{"write:/dev/pts", pm.End}:                            3,
	}
	for e, c := range checks {
		if got := g.EdgeCount(e); got != c {
			t.Errorf("edge %s = %d, want %d", e, got, c)
		}
	}
	if g.nodes["write:/dev/pts"] != 12 {
		t.Errorf("write:/dev/pts count = %d, want 12", g.nodes["write:/dev/pts"])
	}
}

// TestFig3dUnion checks that the DFG of the union event-log C_x has the
// combined counts of Figure 3d.
func TestFig3dUnion(t *testing.T) {
	cx := trace.MustUnion(logA(t), logB(t))
	g := buildGraph(t, cx)
	checks := map[Edge]int{
		{pm.Start, "read:/usr/lib"}:                           6,
		{"read:/usr/lib", "read:/usr/lib"}:                    12,
		{"read:/usr/lib", "read:/proc/filesystems"}:           6,
		{"read:/etc/locale.alias", "read:/etc/nsswitch.conf"}: 3,
		{"read:/etc/locale.alias", "write:/dev/pts"}:          3,
		{"write:/dev/pts", pm.End}:                            6,
	}
	for e, c := range checks {
		if got := g.EdgeCount(e); got != c {
			t.Errorf("edge %s = %d, want %d", e, got, c)
		}
	}
}

// TestClassifyFig3d verifies the partition coloring of Figure 3d: red
// elements are exclusive to ls -l, and the single green edge is
// read:/etc/locale.alias → write:/dev/pts (exclusive to ls).
func TestClassifyFig3d(t *testing.T) {
	la, lb := logA(t), logB(t)
	cx := trace.MustUnion(la, lb)
	full := buildGraph(t, cx)
	green := buildGraph(t, la)
	red := buildGraph(t, lb)
	p := Classify(full, green, red)

	wantRedNodes := []pm.Activity{
		"read:/etc/nsswitch.conf", "read:/etc/passwd", "read:/etc/group", "read:/usr/share",
	}
	for _, a := range wantRedNodes {
		if p.Node(a) != Red {
			t.Errorf("node %s = %v, want red", a, p.Node(a))
		}
	}
	sharedNodes := []pm.Activity{
		"read:/usr/lib", "read:/proc/filesystems", "read:/etc/locale.alias", "write:/dev/pts",
	}
	for _, a := range sharedNodes {
		if p.Node(a) != Shared {
			t.Errorf("node %s = %v, want shared", a, p.Node(a))
		}
	}
	// "There are no activities that occur exclusively in ls, except a
	// single directly-follows relation indicated as an edge from
	// read:/etc/locale.alias to write:/dev/pts."
	gn, _, _ := p.CountNodes()
	if gn != 0 {
		t.Errorf("green nodes = %d, want 0", gn)
	}
	if p.Edge(Edge{"read:/etc/locale.alias", "write:/dev/pts"}) != Green {
		t.Errorf("locale.alias→dev/pts should be the single green edge")
	}
	ge, _, _ := p.CountEdges()
	if ge != 1 {
		t.Errorf("green edges = %d, want 1", ge)
	}
	if p.Edge(Edge{"read:/etc/locale.alias", "read:/etc/nsswitch.conf"}) != Red {
		t.Errorf("locale.alias→nsswitch.conf should be red")
	}
	var redNodes []pm.Activity
	for _, a := range full.Nodes() {
		if p.Node(a) == Red {
			redNodes = append(redNodes, a)
		}
	}
	if len(redNodes) != 4 {
		t.Errorf("red nodes = %v, want 4", redNodes)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := buildGraph(t, logA(t))
	if !g.HasNode("write:/dev/pts") || g.HasNode("no:such") {
		t.Errorf("HasNode broken")
	}
	if !g.hasEdge(Edge{pm.Start, "read:/usr/lib"}) {
		t.Errorf("hasEdge broken")
	}
	nodes := g.Nodes()
	if nodes[0] != pm.Start || nodes[len(nodes)-1] != pm.End {
		t.Errorf("node ordering: %v", nodes)
	}
	var out, in int
	for _, e := range g.Edges() {
		if e.From == "read:/usr/lib" {
			out++
		}
		if e.To == "write:/dev/pts" {
			in++
		}
	}
	if out != 2 || in != 1 {
		t.Errorf("edges out of read:/usr/lib = %d, into write:/dev/pts = %d; want 2, 1", out, in)
	}
	if g.NumTraces() != 3 {
		t.Errorf("NumTraces = %d", g.NumTraces())
	}
	if !g.Equal(buildGraph(t, logA(t))) {
		t.Errorf("Equal(self rebuild) = false")
	}
	if g.Equal(buildGraph(t, logB(t))) {
		t.Errorf("Equal(different) = true")
	}
}

// Property: flow conservation. For every non-virtual activity, the summed
// in-edge counts and out-edge counts both equal the node occurrence count
// when traces carry endpoints; the start node's out-weight equals the
// number of traces; total edge count equals Σ (len(σ)+1)·mult. A case
// with no events leaves no trace, so only the non-empty cases count.
func TestFlowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	acts := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 40; trial++ {
		var cases []*trace.Case
		totalLen, traces := 0, 0
		nc := 1 + rng.Intn(8)
		for i := 0; i < nc; i++ {
			n := rng.Intn(20)
			evs := make([]trace.Event, n)
			for j := range evs {
				evs[j] = trace.Event{
					Call:  acts[rng.Intn(len(acts))],
					FP:    "/x",
					Start: time.Duration(j) * time.Millisecond,
				}
			}
			totalLen += n
			if n > 0 {
				traces++
			}
			cases = append(cases, trace.NewCase(trace.CaseID{CID: "p", Host: "h", RID: i}, evs))
		}
		el := trace.MustNewEventLog(cases...)
		m := pm.MappingFunc(func(e trace.Event) (pm.Activity, bool) { return pm.Activity(e.Call), true })
		l := pm.Build(el, m, pm.BuildOptions{Endpoints: true})
		g := Build(l)

		in, out, total := flowWeights(g)
		if got, want := out[pm.Start], traces; got != want {
			t.Fatalf("trial %d: start out-weight = %d, want %d", trial, got, want)
		}
		if got, want := in[pm.End], traces; got != want {
			t.Fatalf("trial %d: end in-weight = %d, want %d", trial, got, want)
		}
		if got, want := total, totalLen+traces; got != want {
			t.Fatalf("trial %d: total edge count = %d, want %d", trial, got, want)
		}
		for _, a := range g.Nodes() {
			if a.IsVirtual() {
				continue
			}
			if in[a] != g.nodes[a] || out[a] != g.nodes[a] {
				t.Fatalf("trial %d: flow conservation violated at %s: in=%d out=%d count=%d",
					trial, a, in[a], out[a], g.nodes[a])
			}
		}
	}
}

// flowWeights sums each node's in-edge and out-edge counts, and all
// edge counts, from the graph's edge list.
func flowWeights(g *Graph) (in, out map[pm.Activity]int, total int) {
	in, out = map[pm.Activity]int{}, map[pm.Activity]int{}
	for _, e := range g.Edges() {
		c := g.EdgeCount(e)
		out[e.From] += c
		in[e.To] += c
		total += c
	}
	return in, out, total
}

// Property: the DFG of a union event-log equals the edge-wise sum of the
// subset DFGs (the construction is additive over cases).
func TestBuildAdditivity(t *testing.T) {
	la, lb := logA(t), logB(t)
	cx := trace.MustUnion(la, lb)
	full := buildGraph(t, cx)
	ga, gb := buildGraph(t, la), buildGraph(t, lb)
	for _, e := range full.Edges() {
		if got, want := full.EdgeCount(e), ga.EdgeCount(e)+gb.EdgeCount(e); got != want {
			t.Errorf("edge %s: union=%d, sum=%d", e, got, want)
		}
	}
	for _, a := range full.Nodes() {
		if got, want := full.nodes[a], ga.nodes[a]+gb.nodes[a]; got != want {
			t.Errorf("node %s: union=%d, sum=%d", a, got, want)
		}
	}
}

// TestUnionGraphs: the DFG of a union event-log is the DFG built from
// the merged subset activity-logs — the law every snapshot merge stands
// on now that the graph itself is never merged — and merging nil into a
// log changes nothing.
func TestUnionGraphs(t *testing.T) {
	la, lb := logA(t), logB(t)
	m := pm.CallTopDirs{Depth: 2}
	direct := buildGraph(t, trace.MustUnion(la, lb))
	union := &pm.Log{}
	union.Merge(pm.Build(la, m, pm.BuildOptions{Endpoints: true}))
	union.Merge(pm.Build(lb, m, pm.BuildOptions{Endpoints: true}))
	if got := Build(union); !got.Equal(direct) || got.NumTraces() != direct.NumTraces() {
		t.Errorf("DFG of merged logs differs from DFG of union log:\n%s\nvs\n%s", got, direct)
	}
	if union.Merge(nil); !Build(union).Equal(direct) {
		t.Errorf("nil operand mishandled")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := newGraph()
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.NumTraces() != 0 {
		t.Errorf("empty graph not empty")
	}
	if _, _, total := flowWeights(g); total != 0 {
		t.Errorf("empty graph's edge counts sum to %d", total)
	}
}

// TestMergeReproducesBuild is the dfg merge law: partition an
// event-log's cases over partial activity-logs, merge the logs in any
// order, and the graph built from the merged log must Equal the graph
// built in one pass — whatever the partition or the merge order.
func TestMergeReproducesBuild(t *testing.T) {
	m := pm.CallTopDirs{Depth: 2}
	el := trace.MustUnion(logA(t), logB(t))
	want := Build(pm.Build(el, m, pm.BuildOptions{Endpoints: true}))
	for shards := 1; shards <= 4; shards++ {
		parts := make([][]*trace.Case, shards)
		for i, c := range el.Cases() {
			parts[i%shards] = append(parts[i%shards], c)
		}
		logs := make([]*pm.Log, shards)
		for i, cs := range parts {
			logs[i] = pm.Build(trace.MustNewEventLog(cs...), m, pm.BuildOptions{Endpoints: true})
		}
		for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
			got := &pm.Log{}
			for _, i := range order {
				if i < shards {
					got.Merge(logs[i])
				}
			}
			g := Build(got)
			if !g.Equal(want) {
				t.Errorf("shards=%d order=%v: graph of merged logs differs from one-pass build:\n%s\nwant:\n%s", shards, order, g, want)
			}
			if g.NumTraces() != want.NumTraces() {
				t.Errorf("shards=%d order=%v: traces = %d, want %d", shards, order, g.NumTraces(), want.NumTraces())
			}
		}
	}
}

// TestMergeIdentityAndInputs: merging empty logs and nil is the
// identity for the built graph, the empty log builds the empty graph,
// and a built graph shares nothing with its log or with another build.
func TestMergeIdentityAndInputs(t *testing.T) {
	l := pm.Build(logA(t), pm.CallTopDirs{Depth: 2}, pm.BuildOptions{Endpoints: true})
	g := Build(l)
	nodes, edges, traces := g.NumNodes(), g.NumEdges(), g.NumTraces()
	if e := Build(&pm.Log{}); e.NumNodes() != 0 || e.NumEdges() != 0 || e.NumTraces() != 0 {
		t.Errorf("empty log builds a non-empty graph:\n%s", e)
	}
	merged := &pm.Log{}
	for _, o := range []*pm.Log{l, nil, {}} {
		merged.Merge(o)
	}
	got := Build(merged)
	if !got.Equal(g) || got.NumTraces() != traces {
		t.Errorf("identity law violated:\n%s\nwant:\n%s", got, g)
	}
	got.AddNode("extra:/node", 1)
	if g.NumNodes() != nodes || g.NumEdges() != edges {
		t.Errorf("Build aliased another build: %d/%d nodes, want %d/%d", g.NumNodes(), g.NumEdges(), nodes, edges)
	}
	if again := Build(l); !again.Equal(g) {
		t.Errorf("Build changed its log:\n%s\nwant:\n%s", again, g)
	}
}
