// Instrumentation-agnostic ingestion: the paper notes that the DFG
// methodology "does not depend on strace and can be applied over data
// instrumented by one of the other existing tools". This example feeds a
// Darshan DXT text dump (the per-access trace of darshan-dxt-parser)
// through exactly the same pipeline as the strace examples.
//
//	go run ./examples/dxt_import
package main

import (
	"fmt"
	"log"
	"strings"

	"stinspector"
)

// A small DXT dump: two ranks on two nodes writing a shared file through
// MPI-IO, then reading it back.
const dxtDump = `
# DXT, file_id: 9151740807103634417, file_name: /p/scratch/user/ssf/testFile
# DXT, rank: 0, hostname: jwc001
# Module    Rank  Wt/Rd  Segment          Offset       Length    Start(s)      End(s)
 X_MPIIO       0  write        0               0      1048576      0.001200      0.004700
 X_MPIIO       0  write        1         1048576      1048576      0.004900      0.008100
 X_MPIIO       0   read        2        16777216      1048576      0.020000      0.022500
# DXT, file_id: 9151740807103634417, file_name: /p/scratch/user/ssf/testFile
# DXT, rank: 1, hostname: jwc002
# Module    Rank  Wt/Rd  Segment          Offset       Length    Start(s)      End(s)
 X_MPIIO       1  write        0        16777216      1048576      0.002000      0.009000
 X_MPIIO       1  write        1        17825792      1048576      0.009100      0.012000
 X_MPIIO       1   read        2               0      1048576      0.021000      0.024000
`

func main() {
	in, err := stinspector.FromDXT("job42", strings.NewReader(dxtDump), stinspector.OpenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ingested:", in.Summary())

	// The same mapping, DFG and statistics machinery as for strace
	// input — the event model is instrumentation-agnostic.
	in = in.WithMapping(stinspector.CallTopDirs{Depth: 3})
	st := in.Stats()
	fmt.Println("\n--- DFG from Darshan DXT data ---")
	fmt.Print(stinspector.RenderText(in.DFG(), st, nil))

	fmt.Println("\n--- timeline of the MPI-IO writes ---")
	tl := in.Timeline("pwrite64:/p/scratch/user")
	fmt.Print(stinspector.RenderTimeline(tl))
	fmt.Printf("max-concurrency: %d\n", stinspector.MaxConcurrency(tl))
}
