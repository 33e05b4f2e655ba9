package report

import (
	"fmt"
	"html/template"
	"io"
	"strings"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/render"
)

// GenerateHTML writes a self-contained interactive-free HTML report — the
// counterpart of the PyDarshan HTML summaries cited in the paper's
// related work. It embeds the statistics table, the per-process
// breakdown, SVG timelines, and the DFG as a Mermaid diagram (rendered by
// any Mermaid-enabled viewer; the raw structure remains readable as
// text).
func GenerateHTML(w io.Writer, in *core.Inspector, opts Options) error {
	if opts.TopActivities <= 0 {
		opts.TopActivities = 12
	}
	if opts.TopCases <= 0 {
		opts.TopCases = 12
	}
	title := opts.Title
	if title == "" {
		title = "I/O inspection report"
	}

	st := in.Stats()
	type actRow struct {
		Activity string
		Load     string
		DR       string
		Events   int
		P50, P99 string
		Tail     string
	}
	shown, _ := hotActivities(in, st, opts.TopActivities)
	acts := make([]actRow, len(shown))
	for i, r := range shown {
		acts[i] = actRow{
			Activity: string(r.a),
			Load:     render.FormatLoad(r.st.RelDur, r.st.Bytes, r.st.HasBytes),
			Events:   r.st.Events,
		}
		if r.st.HasBytes {
			acts[i].DR = render.FormatDR(r.st.MaxConc, r.st.ProcRate)
		}
		if r.hasDist {
			acts[i].P50 = render.FormatDuration(r.dist.P50)
			acts[i].P99 = render.FormatDuration(r.dist.P99)
			acts[i].Tail = fmt.Sprintf("%.0f%%", r.dist.TailShare*100)
		}
	}

	type caseRow struct {
		Case   string
		Events int
		Dur    string
		Bytes  string
	}
	var cases []caseRow
	for i, c := range in.PerCase("") {
		if i >= opts.TopCases {
			break
		}
		cases = append(cases, caseRow{
			Case:   c.Case.String(),
			Events: c.Events,
			Dur:    render.FormatDuration(c.TotalDur),
			Bytes:  render.FormatBytes(c.Bytes),
		})
	}

	var full *dfg.Graph
	var part *dfg.Partition
	partNote := ""
	if len(opts.GreenCIDs) > 0 {
		full, part = in.PartitionByCID(opts.GreenCIDs...)
		gn, rn, sn := part.CountNodes()
		partNote = fmt.Sprintf("partition: green = {%s}; %d green / %d red / %d shared nodes",
			strings.Join(opts.GreenCIDs, ","), gn, rn, sn)
	} else {
		full = in.DFG()
	}
	var styler render.Styler = render.StatisticsColoring{Stats: st}
	if part != nil {
		styler = render.PartitionColoring{Partition: part}
	}
	mermaid := render.RenderMermaid(full, st, styler)

	var timelines []template.HTML
	for _, a := range opts.Timelines {
		timelines = append(timelines,
			template.HTML(render.RenderTimelineSVG(in.Timeline(a), string(a)))) // #nosec G203 -- RenderTimelineSVG escapes all labels
	}

	el := in.EventLog()
	data := map[string]any{
		"Title":      title,
		"Cases":      el.NumCases(),
		"Events":     el.NumEvents(),
		"Calls":      strings.Join(el.CallNames(), ", "),
		"Bytes":      render.FormatBytes(el.TotalBytes()),
		"IOTime":     render.FormatDuration(time.Duration(el.TotalDur())),
		"Activities": acts,
		"CaseRows":   cases,
		"Mermaid":    mermaid,
		"PartNote":   partNote,
		"Timelines":  timelines,
	}
	return htmlTmpl.Execute(w, data)
}

var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 72em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #cccccc; padding: 4px 10px; text-align: left; font-size: 14px; }
th { background: #f0f4f8; }
pre.mermaid { background: #fafafa; border: 1px solid #eeeeee; padding: 1em; overflow-x: auto; }
.note { color: #555555; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>

<h2>Overview</h2>
<table>
<tr><th>cases</th><td>{{.Cases}}</td></tr>
<tr><th>events</th><td>{{.Events}}</td></tr>
<tr><th>calls</th><td>{{.Calls}}</td></tr>
<tr><th>bytes moved</th><td>{{.Bytes}}</td></tr>
<tr><th>I/O time</th><td>{{.IOTime}}</td></tr>
</table>

<h2>Hot activities</h2>
<table>
<tr><th>activity</th><th>load</th><th>DR</th><th>events</th><th>p50</th><th>p99</th><th>tail share</th></tr>
{{range .Activities}}<tr><td>{{.Activity}}</td><td>{{.Load}}</td><td>{{.DR}}</td><td>{{.Events}}</td><td>{{.P50}}</td><td>{{.P99}}</td><td>{{.Tail}}</td></tr>
{{end}}</table>

<h2>Slowest processes</h2>
<table>
<tr><th>case</th><th>events</th><th>total duration</th><th>bytes</th></tr>
{{range .CaseRows}}<tr><td>{{.Case}}</td><td>{{.Events}}</td><td>{{.Dur}}</td><td>{{.Bytes}}</td></tr>
{{end}}</table>

<h2>Directly-Follows-Graph</h2>
{{if .PartNote}}<p class="note">{{.PartNote}}</p>{{end}}
<pre class="mermaid">
{{.Mermaid}}</pre>

{{range .Timelines}}
<h2>Timeline</h2>
{{.}}
{{end}}
</body>
</html>
`))
