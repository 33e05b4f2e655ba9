// Timeline inspection (the paper's Figure 5): extract the event
// intervals of one activity across all processes and render them as a
// per-case timeline, together with the max-concurrency statistic the
// sweep computes from the same data.
//
//	go run ./examples/timeline [-activity read:/usr/lib]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"stinspector"
	"stinspector/internal/lssim"
)

var activity = flag.String("activity", "read:/usr/lib", "activity to plot")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output, under the flags' values, to w.
func run(w io.Writer) error {
	// The ls -l event-log C_b of the paper's running example.
	cb := lssim.LSL(lssim.Config{})
	in := stinspector.FromEventLog(cb).WithMapping(stinspector.CallTopDirs{Depth: 2})

	tl := in.Timeline(stinspector.Activity(*activity))
	fmt.Fprintf(w, "timeline of %s over C_b (%d events):\n\n", *activity, len(tl))
	fmt.Fprint(w, stinspector.RenderTimeline(tl))

	mc := stinspector.MaxConcurrency(tl)
	fmt.Fprintf(w, "\nmax-concurrency mc = %d ", mc)
	fmt.Fprintln(w, "(the highest number of processes inside this activity at once)")

	st := in.Stats().Get(stinspector.Activity(*activity))
	if st != nil {
		fmt.Fprintf(w, "events=%d  bytes=%d  relative duration=%.2f\n", st.Events, st.Bytes, st.RelDur)
	}
	return nil
}
