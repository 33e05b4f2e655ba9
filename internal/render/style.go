package render

import (
	"fmt"
	"math"

	"stinspector/internal/dfg"
	"stinspector/internal/pm"
	"stinspector/internal/stats"
)

// NodeStyle collects the visual attributes of one DFG node.
type NodeStyle struct {
	// FillColor is a hex "#rrggbb" fill, empty for none.
	FillColor string
	// FontColor is a hex font color, empty for the default (black).
	FontColor string
	// Border is a pen color for the node outline, empty for default.
	Border string
}

// EdgeStyle collects the visual attributes of one DFG edge.
type EdgeStyle struct {
	// Color is a pen/label color, empty for default.
	Color string
	// PenWidth scales the stroke (0 means default).
	PenWidth float64
}

// Styler decides the style of nodes and edges; it corresponds to the
// "styler" argument of the paper's DFGViewer (Figure 6, steps 5a/5b).
type Styler interface {
	Node(a pm.Activity) NodeStyle
	Edge(e dfg.Edge) EdgeStyle
}

// plainStyle applies no coloring.
type plainStyle struct{}

// Node implements Styler.
func (plainStyle) Node(pm.Activity) NodeStyle { return NodeStyle{} }

// Edge implements Styler.
func (plainStyle) Edge(dfg.Edge) EdgeStyle { return EdgeStyle{} }

// StatisticsColoring is the statistics-based strategy of Section IV-C(1):
// the higher the activity's relative duration, the darker the shade of
// blue.
type StatisticsColoring struct {
	Stats *stats.Stats
}

// Node implements Styler.
func (c StatisticsColoring) Node(a pm.Activity) NodeStyle {
	if a.IsVirtual() || c.Stats == nil {
		return NodeStyle{}
	}
	st := c.Stats.Get(a)
	if st == nil {
		return NodeStyle{}
	}
	var frac float64
	if m := c.Stats.MaxRelDur(); m > 0 {
		frac = st.RelDur / m
	}
	fill, font := blueShade(frac)
	return NodeStyle{FillColor: fill, FontColor: font}
}

// Edge implements Styler.
func (c StatisticsColoring) Edge(dfg.Edge) EdgeStyle { return EdgeStyle{} }

// blueShade interpolates from near-white to a dark blue; dark fills flip
// the font to white for legibility.
func blueShade(frac float64) (fill, font string) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// From #f7fbff (light) to #08306b (dark), the matplotlib "Blues"
	// endpoints the paper's figures resemble.
	r := lerp(0xf7, 0x08, frac)
	g := lerp(0xfb, 0x30, frac)
	b := lerp(0xff, 0x6b, frac)
	fill = fmt.Sprintf("#%02x%02x%02x", r, g, b)
	if frac > 0.55 {
		font = "#ffffff"
	}
	return fill, font
}

func lerp(from, to int, frac float64) int {
	return int(math.Round(float64(from) + (float64(to)-float64(from))*frac))
}

// Partition colors of Section IV-C(2).
const (
	greenFill = "#c7e9c0"
	greenPen  = "#2ca25f"
	redFill   = "#fcbba1"
	redPen    = "#cb181d"
)

// PartitionColoring is the partition-based strategy of Section IV-C(2):
// nodes and edges exclusive to the G subset are green, those exclusive to
// the R subset are red, shared elements stay uncolored.
type PartitionColoring struct {
	Partition *dfg.Partition
}

// Node implements Styler.
func (c PartitionColoring) Node(a pm.Activity) NodeStyle {
	if c.Partition == nil || a.IsVirtual() {
		return NodeStyle{}
	}
	switch c.Partition.Node(a) {
	case dfg.Green:
		return NodeStyle{FillColor: greenFill, Border: greenPen}
	case dfg.Red:
		return NodeStyle{FillColor: redFill, Border: redPen}
	}
	return NodeStyle{}
}

// Edge implements Styler.
func (c PartitionColoring) Edge(e dfg.Edge) EdgeStyle {
	if c.Partition == nil {
		return EdgeStyle{}
	}
	switch c.Partition.Edge(e) {
	case dfg.Green:
		return EdgeStyle{Color: greenPen, PenWidth: 1.6}
	case dfg.Red:
		return EdgeStyle{Color: redPen, PenWidth: 1.6}
	}
	return EdgeStyle{}
}
