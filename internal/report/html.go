package report

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"stinspector/internal/core"
	"stinspector/internal/render"
	"stinspector/internal/stats"
)

// GenerateHTML writes a self-contained interactive-free HTML report — the
// counterpart of the PyDarshan HTML summaries cited in the paper's
// related work. It embeds the statistics table, the per-process
// breakdown, SVG timelines, and the DFG as a Mermaid diagram (rendered by
// any Mermaid-enabled viewer; the raw structure remains readable as
// text). It shows the 12 hottest activities and the 12 slowest cases.
func GenerateHTML(w io.Writer, res *core.StreamResult, d *stats.Detail, opts Options) error {
	s := summarize(res, d, opts, 12)
	var styler render.Styler = render.StatisticsColoring{Stats: res.Stats}
	if s.part != nil {
		s.PartNote = fmt.Sprintf("partition: green = {%s}; %d green / %d red / %d shared nodes",
			strings.Join(opts.GreenCIDs, ","), s.gn, s.rn, s.sn)
		styler = render.PartitionColoring{Partition: s.part}
	}
	s.Mermaid = render.RenderMermaid(res.DFG, res.Stats, styler)
	if a := opts.Timeline; a != "" {
		s.Timeline = template.HTML(render.RenderTimelineSVG(d.Timeline(a), string(a))) // #nosec G203 -- RenderTimelineSVG escapes all labels
	}
	return htmlTmpl.Execute(w, s)
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

{{with .Timeline}}
<h2>Timeline</h2>
{{.}}
{{end}}
</body>
</html>
`))
