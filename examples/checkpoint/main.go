// Checkpoint-strategy comparison: a bulk-synchronous application that
// periodically checkpoints, once with a single shared checkpoint file per
// step and once with per-rank files. Partition coloring of the combined
// DFG (the technique of the paper's Figure 9) highlights where the shared
// strategy loses its time.
//
//	go run ./examples/checkpoint [-ranks 16 -rounds 4]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path"
	"strings"
	"time"

	"stinspector"
	"stinspector/internal/workloads"
)

var (
	ranks  = flag.Int("ranks", 16, "MPI ranks")
	rounds = flag.Int("rounds", 4, "checkpoint rounds")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output, under the flags' values, to w.
func run(w io.Writer) error {
	shared, err := workloads.Checkpoint(workloads.CheckpointConfig{
		CID: "shared", Ranks: *ranks, Rounds: *rounds, Shared: true, Seed: 1,
	})
	if err != nil {
		return err
	}
	fpp, err := workloads.Checkpoint(workloads.CheckpointConfig{
		CID: "perrank", Ranks: *ranks, Rounds: *rounds, Shared: false, Seed: 1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shared:   %6d events, wall-clock sum %v, %d token revocations\n",
		shared.Log.NumEvents(), time.Duration(shared.Log.TotalDur()).Round(time.Millisecond), shared.FS.Revocations)
	fmt.Fprintf(w, "per-rank: %6d events, wall-clock sum %v, %d token revocations\n\n",
		fpp.Log.NumEvents(), time.Duration(fpp.Log.TotalDur()).Round(time.Millisecond), fpp.FS.Revocations)

	union := shared.Log.Clone()
	for _, c := range fpp.Log.Cases() {
		if err := union.Add(c); err != nil {
			return err
		}
	}

	// A user-defined mapping (the flexibility Section IV's mapping
	// abstraction provides): collapse every per-step checkpoint file
	// into one activity per strategy, recognizable by the per-rank
	// ".NNNNNNNN" suffix.
	mapping := stinspector.MappingFunc(func(e stinspector.Event) (stinspector.Activity, bool) {
		dst := "$SCRATCH/ckpt (shared file)"
		if strings.Contains(path.Base(e.FP), ".") {
			dst = "$SCRATCH/ckpt (file per rank)"
		}
		return stinspector.Activity(e.Call + ":" + dst), true
	})
	in := stinspector.FromEventLog(union).WithMapping(mapping)
	full, part := in.PartitionByCID("shared")
	st := in.Stats()

	fmt.Fprintln(w, "--- combined DFG, green = shared-file run, red = per-rank run ---")
	fmt.Fprint(w, stinspector.RenderText(full, st, part))

	fmt.Fprintln(w, "\nreading the graph: both strategies share the $SCRATCH/ckpt shape;")
	fmt.Fprintln(w, "the Load annotations show the shared strategy paying for contended")
	fmt.Fprintln(w, "opens and write-token transfers that the per-rank strategy avoids.")
	return nil
}
