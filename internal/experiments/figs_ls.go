package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/lssim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/strace"
	"stinspector/internal/trace"
)

// fig2 regenerates the raw strace records of Figure 2: the ls and ls -l
// traces rendered in strace text format, including an unfinished/resumed
// pair, and verifies that parsing them back reproduces the events.
func fig2() (*Report, error) {
	r := &Report{ID: "fig2", Title: "strace records of ls and ls -l (Figure 2)"}
	ca, cb, _ := lssim.Both(lssim.Config{})

	var text bytes.Buffer
	first := ca.Cases()[0]
	text.WriteString("--- " + first.ID.FileName() + " (Figure 2a) ---\n")
	w := strace.NewWriter(&text)
	if err := w.WriteCase(first); err != nil {
		return nil, err
	}
	firstB := cb.Cases()[0]
	text.WriteString("\n--- " + firstB.ID.FileName() + " (Figure 2b) ---\n")
	w = strace.NewWriter(&text)
	if err := w.WriteCase(firstB); err != nil {
		return nil, err
	}
	// Figure 2c: an unfinished/resumed pair.
	text.WriteString("\n--- simultaneous multi-processing (Figure 2c) ---\n")
	w = strace.NewWriter(&text)
	w.WriteUnfinishedPair(first.Events[0])
	r.Text = text.String()

	// Round trip through the parser.
	parsed, err := strace.ParseCase(first.ID, strings.NewReader(sectionOf(r.Text, "Figure 2a")), strace.Options{Strict: true})
	if err != nil {
		return nil, err
	}
	r.checkInt("fig2a events parse back", len(parsed.Events), len(first.Events))
	same := true
	for i := range parsed.Events {
		if parsed.Events[i] != first.Events[i] {
			same = false
		}
	}
	r.check("fig2a parse round-trip exact", same, fmt.Sprintf("%v", same), "true")
	r.checkInt("fig2a records per process", len(first.Events), 8)
	r.checkInt("fig2b records per process", len(firstB.Events), 17)
	return r, nil
}

func sectionOf(text, marker string) string {
	i := strings.Index(text, marker)
	if i < 0 {
		return ""
	}
	rest := text[i:]
	if j := strings.Index(rest, "\n"); j >= 0 {
		rest = rest[j+1:]
	}
	if j := strings.Index(rest, "\n---"); j >= 0 {
		rest = rest[:j]
	}
	// Exclude the exit record for exact event comparison.
	return rest
}

// fig3Targets are the node annotations printed in Figure 3.
var fig3Targets = []struct {
	act   pm.Activity
	rd    float64
	bytes int64
	mc    int
}{
	{"read:/usr/lib", 0.22, 14976, 2},
	{"read:/proc/filesystems", 0.27, 2868, 2},
	{"read:/etc/locale.alias", 0.19, 17976, 3},
	{"read:/etc/nsswitch.conf", 0.05, 1626, 2},
	{"read:/etc/passwd", 0.02, 4836, 1},
	{"read:/etc/group", 0.03, 2616, 2},
	{"read:/usr/share", 0.05, 11241, 2},
	{"write:/dev/pts", 0.17, 753, 3},
}

// fig3 regenerates the three DFGs of Figure 3 with their Load/DR
// annotations and the partition coloring of Figure 3d.
func fig3() (*Report, error) {
	r := &Report{ID: "fig3", Title: "DFG synthesis of C_a, C_b, C_x (Figure 3)"}
	ca, cb, cx := lssim.Both(lssim.Config{})
	inA, inB, inX := core.FromEventLog(ca), core.FromEventLog(cb), core.FromEventLog(cx)

	gA, gB, gX := inA.DFG(), inB.DFG(), inX.DFG()
	stX := inX.Stats()
	full, part := inX.PartitionByCID("a")

	var text bytes.Buffer
	text.WriteString("--- G[L(C_a)] (Figure 3b) ---\n")
	text.WriteString(render.RenderText(gA, stX, nil))
	text.WriteString("\n--- G[L(C_b)] (Figure 3c) ---\n")
	text.WriteString(render.RenderText(gB, stX, nil))
	text.WriteString("\n--- G[L(C_x)] partition-colored (Figure 3d) ---\n")
	text.WriteString(render.RenderText(full, stX, part))
	text.WriteString("\n--- DOT of Figure 3d ---\n")
	text.WriteString(render.RenderDOT(full, stX, render.PartitionColoring{Partition: part}))
	r.Text = text.String()

	// Edge counts of Figure 3b.
	fig3b := map[dfg.Edge]int{
		{From: pm.Start, To: "read:/usr/lib"}:                          3,
		{From: "read:/usr/lib", To: "read:/usr/lib"}:                   6,
		{From: "read:/usr/lib", To: "read:/proc/filesystems"}:          3,
		{From: "read:/proc/filesystems", To: "read:/proc/filesystems"}: 3,
		{From: "read:/proc/filesystems", To: "read:/etc/locale.alias"}: 3,
		{From: "read:/etc/locale.alias", To: "read:/etc/locale.alias"}: 3,
		{From: "read:/etc/locale.alias", To: "write:/dev/pts"}:         3,
		{From: "write:/dev/pts", To: pm.End}:                           3,
	}
	for e, want := range fig3b {
		r.checkInt(fmt.Sprintf("3b edge %s", e), gA.EdgeCount(e), want)
	}
	r.checkInt("3b distinct edges", gA.NumEdges(), len(fig3b))

	// Node annotations of Figure 3 (statistics over C_x).
	for _, tgt := range fig3Targets {
		st := stX.Get(tgt.act)
		if st == nil {
			r.check(fmt.Sprintf("stats for %s", tgt.act), false, "missing", "present")
			continue
		}
		r.checkInt(fmt.Sprintf("bytes(%s)", tgt.act), int(st.Bytes), int(tgt.bytes))
		r.checkInt(fmt.Sprintf("mc(%s)", tgt.act), st.MaxConc, tgt.mc)
		if tgt.rd > 0 {
			r.check(fmt.Sprintf("rd(%s)", tgt.act),
				math.Abs(st.RelDur-tgt.rd) <= 0.01,
				fmt.Sprintf("%.3f", st.RelDur), fmt.Sprintf("%.2f±0.01", tgt.rd))
		}
	}

	// Figure 3d coloring: four nodes exclusive to ls -l, none to ls,
	// one green edge.
	for _, a := range []pm.Activity{"read:/etc/nsswitch.conf", "read:/etc/passwd", "read:/etc/group", "read:/usr/share"} {
		r.check(fmt.Sprintf("3d %s red", a), part.Node(a) == dfg.Red, part.Node(a).String(), "red")
	}
	gn, rn, _ := part.CountNodes()
	r.checkInt("3d green nodes", gn, 0)
	r.checkInt("3d red nodes", rn, 4)
	ge, _, _ := part.CountEdges()
	r.checkInt("3d green edges", ge, 1)
	r.check("3d single green edge is locale→pts",
		part.Edge(dfg.Edge{From: "read:/etc/locale.alias", To: "write:/dev/pts"}) == dfg.Green,
		part.Edge(dfg.Edge{From: "read:/etc/locale.alias", To: "write:/dev/pts"}).String(), "green")

	// Union additivity (Figure 3d counts are the sums of 3b and 3c).
	e := dfg.Edge{From: pm.Start, To: "read:/usr/lib"}
	r.checkInt("3d start edge count", gX.EdgeCount(e), 6)
	return r, nil
}

// fig4 regenerates the file-level DFG restricted to /usr/lib.
func fig4() (*Report, error) {
	r := &Report{ID: "fig4", Title: "DFG restricted to /usr/lib at file granularity (Figure 4)"}
	_, _, cx := lssim.Both(lssim.Config{})
	in := core.FromEventLog(cx).FilterPath("/usr/lib").WithMapping(pm.CallFileName{Keep: 2})
	g := in.DFG()
	st := in.Stats()
	r.Text = render.RenderText(g, st, nil) + "\n" + render.RenderDOT(g, st, render.StatisticsColoring{Stats: st})

	selinux := pm.Activity("read:x86_64-linux-gnu/libselinux.so.1")
	libc := pm.Activity("read:x86_64-linux-gnu/libc.so.6")
	pcre := pm.Activity("read:x86_64-linux-gnu/libpcre2-8.so.0.10.4")
	r.checkInt("nodes (3 libs + start/end)", g.NumNodes(), 5)
	r.checkInt("● → libselinux", g.EdgeCount(dfg.Edge{From: pm.Start, To: selinux}), 6)
	r.checkInt("libselinux → libc", g.EdgeCount(dfg.Edge{From: selinux, To: libc}), 6)
	r.checkInt("libc → libpcre2", g.EdgeCount(dfg.Edge{From: libc, To: pcre}), 6)
	r.checkInt("libpcre2 → ■", g.EdgeCount(dfg.Edge{From: pcre, To: pm.End}), 6)
	for _, a := range []pm.Activity{selinux, libc, pcre} {
		r.checkInt(fmt.Sprintf("bytes(%s)", a), int(st.Get(a).Bytes), 6*832)
	}
	return r, nil
}

// fig5 regenerates the timeline plot of read:/usr/lib over C_b.
func fig5() (*Report, error) {
	r := &Report{ID: "fig5", Title: "timeline of read:/usr/lib over C_b (Figure 5)"}
	_, cb, _ := lssim.Both(lssim.Config{})
	in := core.FromEventLog(cb)
	tl := in.Timeline("read:/usr/lib")
	r.Text = render.RenderTimeline(tl)

	r.checkInt("intervals", len(tl), 9)
	rows := map[trace.CaseID]bool{}
	for _, iv := range tl {
		rows[iv.Case] = true
	}
	r.checkInt("timeline rows", len(rows), 3)
	mc := in.Stats().Get("read:/usr/lib").MaxConc
	r.checkInt("max-concurrency", mc, 2)
	return r, nil
}
