package render

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"stinspector/internal/trace"
)

// timelinePlot renders interval data as an ASCII timeline in the style of
// Figure 5: one row per case, bars marking the active ranges of the
// activity's events.
type timelinePlot struct {
	// Width is the number of character columns for the time axis
	// (default 72).
	Width int
}

// Render writes the plot. Intervals from the same case share a row; rows
// are ordered by case identity. Returns an error only on writer failure.
func (p *timelinePlot) Render(w io.Writer, intervals []trace.Interval) error {
	width := p.Width
	if width <= 0 {
		width = 72
	}
	if len(intervals) == 0 {
		_, err := io.WriteString(w, "(no events)\n")
		return err
	}

	minT, maxT := intervals[0].Start, intervals[0].End
	byCase := make(map[trace.CaseID][]trace.Interval)
	for _, iv := range intervals {
		if iv.Start < minT {
			minT = iv.Start
		}
		if iv.End > maxT {
			maxT = iv.End
		}
		byCase[iv.Case] = append(byCase[iv.Case], iv)
	}
	span := maxT - minT
	if span <= 0 {
		span = 1
	}

	ids := make([]trace.CaseID, 0, len(byCase))
	for id := range byCase {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })

	labelW := 0
	for _, id := range ids {
		if n := len(id.String()); n > labelW {
			labelW = n
		}
	}

	var b strings.Builder
	for _, id := range ids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range byCase[id] {
			lo := int(float64(iv.Start-minT) / float64(span) * float64(width))
			hi := int(float64(iv.End-minT) / float64(span) * float64(width))
			if hi <= lo {
				hi = lo + 1 // every event is at least one cell wide
			}
			if hi > width {
				hi = width
			}
			for i := lo; i < hi; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", labelW, id, row)
	}
	fmt.Fprintf(&b, "%-*s  %s\n", labelW, "", axisLabel(span, width))
	_, err := io.WriteString(w, b.String())
	return err
}

func axisLabel(span time.Duration, width int) string {
	left := "0"
	right := FormatDuration(span)
	pad := width - len(left) - len(right)
	if pad < 1 {
		pad = 1
	}
	return left + strings.Repeat(" ", pad) + right
}

// RenderTimeline renders intervals with the default width.
func RenderTimeline(intervals []trace.Interval) string {
	var b strings.Builder
	p := &timelinePlot{}
	_ = p.Render(&b, intervals)
	return b.String()
}
