// With vs without the MPI-IO interface (the paper's Section V-B):
// simulate two IOR runs on a single shared file, one through POSIX
// read/write (with the lseek repositioning they require) and one through
// MPI-IO's pread64/pwrite64, then color the combined DFG by partition to
// make the interface difference visible, as in Figure 9.
//
//	go run ./examples/mpiio_compare
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"stinspector"
	"stinspector/internal/iorsim"
)

var ranks = flag.Int("ranks", 32, "MPI ranks per run")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output, under the flags' values, to w.
func run(w io.Writer) error {
	simulate := func(cid string, api iorsim.API, baseRID int) (*iorsim.Result, error) {
		return iorsim.Run(iorsim.Config{
			CID: cid, Ranks: *ranks, Hosts: 2, BaseRID: baseRID,
			TransferSize: 1 << 20, BlockSize: 16 << 20, Segments: 3,
			Write: true, Read: true, Fsync: true, ReorderTasks: true,
			API: api, Preamble: true, Seed: 7,
		})
	}
	posix, err := simulate("posix", iorsim.POSIX, 60000)
	if err != nil {
		return err
	}
	mpiio, err := simulate("mpiio", iorsim.MPIIO, 70000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "posix run: %d system calls\n", posix.Log.NumEvents())
	fmt.Fprintf(w, "mpiio run: %d system calls (pread64/pwrite64 fuse the lseek)\n\n", mpiio.Log.NumEvents())

	union := posix.Log.Clone()
	for _, c := range mpiio.Log.Cases() {
		if err := union.Add(c); err != nil {
			return err
		}
	}
	// Experiment B records lseek in addition to read/write/openat.
	union = union.FilterCalls("read", "write", "pread64", "pwrite64", "lseek", "openat")

	site := posix.Cfg.Site
	mapping := stinspector.NewEnvMapping(0,
		stinspector.PrefixVar{Prefix: site.Scratch, Var: "$SCRATCH"},
		stinspector.PrefixVar{Prefix: site.Home, Var: "$HOME"},
		stinspector.PrefixVar{Prefix: site.Software, Var: "$SOFTWARE"},
		stinspector.PrefixVar{Prefix: site.NodeLocal, Var: "Node Local"},
	)
	in := stinspector.FromEventLog(union).WithMapping(mapping)

	// Partition: green = cases of the MPI-IO run, red = POSIX-only.
	full, part := in.PartitionByCID("mpiio")
	st := in.Stats()

	fmt.Fprintln(w, "--- partition-colored DFG (compare with Figure 9) ---")
	fmt.Fprint(w, stinspector.RenderText(full, st, part))

	fmt.Fprintln(w, "\n--- DOT with green/red coloring ---")
	fmt.Fprint(w, stinspector.RenderDOT(full, st, stinspector.PartitionColoring{Partition: part}))

	gn, rn, sn := part.CountNodes()
	fmt.Fprintf(w, "\n%d activities exclusive to MPI-IO (green), %d exclusive to POSIX (red), %d shared\n", gn, rn, sn)
	return nil
}
