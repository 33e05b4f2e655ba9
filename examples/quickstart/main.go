// Quickstart: generate the paper's ls / ls -l demo traces as strace
// files, ingest them, synthesize the Directly-Follows-Graph of Figure 3d
// with partition coloring, and print both the text listing and the
// Graphviz DOT document.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"stinspector"
	"stinspector/internal/lssim"
	"stinspector/internal/strace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to w.
func run(w io.Writer) error {
	// 1. Record: two commands ("a" = ls, "b" = ls -l), three MPI
	// processes each, one strace file per process (Figure 1).
	dir, err := os.MkdirTemp("", "stinspector-quickstart")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, _, cx := lssim.Both(lssim.Config{})
	if err := strace.WriteDir(dir, cx); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d trace files under a temporary directory\n\n", cx.NumCases())

	// 2. Ingest the trace directory.
	in, err := stinspector.FromStraceDir(dir, stinspector.ParseOptions{Strict: true})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "event-log:", in.Summary())

	// 3. Map events to activities with the paper's f̂ (call + top two
	// directory levels) and synthesize the DFG.
	in = in.WithMapping(stinspector.CallTopDirs{Depth: 2})
	st := in.Stats()

	// 4. Compare ls against ls -l with partition-based coloring
	// (Section IV-C): green = exclusive to ls, red = exclusive to
	// ls -l.
	full, part := in.PartitionByCID("a")

	fmt.Fprintln(w, "\n--- DFG with Load/DR annotations and partition classes ---")
	fmt.Fprint(w, stinspector.RenderText(full, st, part))

	fmt.Fprintln(w, "\n--- Graphviz DOT (pipe into `dot -Tsvg`) ---")
	fmt.Fprint(w, stinspector.RenderDOT(full, st, stinspector.PartitionColoring{Partition: part}))
	return nil
}
