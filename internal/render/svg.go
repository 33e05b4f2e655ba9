package render

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"stinspector/internal/trace"
)

// timelineSVG renders interval data as a standalone SVG document in the
// style of Figure 5: one horizontal lane per case, one bar per event.
// The output is self-contained (no scripts, no external references) and
// deterministic.
type timelineSVG struct {
	// Width is the drawing width in pixels (default 720).
	Width int
	// RowHeight is the lane height in pixels (default 22).
	RowHeight int
	// Title is an optional heading rendered above the lanes.
	Title string
}

const svgBar = "#4878a8"

// Render writes the document.
func (p *timelineSVG) Render(w io.Writer, intervals []trace.Interval) error {
	width := p.Width
	if width <= 0 {
		width = 720
	}
	rowH := p.RowHeight
	if rowH <= 0 {
		rowH = 22
	}
	labelW := 170
	topPad := 8
	if p.Title != "" {
		topPad = 30
	}

	byCase := make(map[trace.CaseID][]trace.Interval)
	var minT, maxT time.Duration
	first := true
	for _, iv := range intervals {
		if first || iv.Start < minT {
			minT = iv.Start
		}
		if first || iv.End > maxT {
			maxT = iv.End
		}
		first = false
		byCase[iv.Case] = append(byCase[iv.Case], iv)
	}
	ids := make([]trace.CaseID, 0, len(byCase))
	for id := range byCase {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })

	span := maxT - minT
	if span <= 0 {
		span = 1
	}
	plotW := width - labelW - 10
	height := topPad + len(ids)*rowH + 26

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="#ffffff"/>` + "\n")
	if p.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="18" font-weight="bold">%s</text>`+"\n", labelW, xmlEscape(p.Title))
	}
	for row, id := range ids {
		y := topPad + row*rowH
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", y+rowH-7, xmlEscape(id.String()))
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#dddddd"/>`+"\n",
			labelW, y+rowH-4, labelW+plotW, y+rowH-4)
		for _, iv := range byCase[id] {
			x := labelW + int(float64(iv.Start-minT)/float64(span)*float64(plotW))
			wpx := int(float64(iv.End-iv.Start) / float64(span) * float64(plotW))
			if wpx < 2 {
				wpx = 2
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
				x, y+3, wpx, rowH-10, svgBar)
		}
	}
	axisY := topPad + len(ids)*rowH + 14
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#555555">0</text>`+"\n", labelW, axisY)
	endLabel := FormatDuration(span)
	fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#555555" text-anchor="end">%s</text>`+"\n",
		labelW+plotW, axisY, xmlEscape(endLabel))
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderTimelineSVG renders intervals with default sizing.
func RenderTimelineSVG(intervals []trace.Interval, title string) string {
	var b strings.Builder
	p := &timelineSVG{Title: title}
	_ = p.Render(&b, intervals)
	return b.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
