// Single Shared File vs File Per Process (the paper's Section V-A):
// simulate two IOR runs — all ranks writing one shared file, and each
// rank writing its own file — then locate the contention in the DFG the
// way Figure 8 does.
//
//	go run ./examples/ior_ssf_fpp [-ranks 32]
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
	simulate := func(cid string, fpp bool, baseRID int) (*iorsim.Result, error) {
		return iorsim.Run(iorsim.Config{
			CID: cid, Ranks: *ranks, Hosts: 2, BaseRID: baseRID,
			TransferSize: 1 << 20, BlockSize: 16 << 20, Segments: 3,
			Write: true, Read: true, Fsync: true, ReorderTasks: true,
			FilePerProc: fpp, Preamble: true, Seed: 42,
		})
	}
	ssf, err := simulate("ssf", false, 40000)
	if err != nil {
		return err
	}
	fpp, err := simulate("fpp", true, 50000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ssf run: %d events, %d token revocations, %d contended opens\n",
		ssf.Log.NumEvents(), ssf.FS.Revocations, ssf.FS.SharedOpens)
	fmt.Fprintf(w, "fpp run: %d events, %d token revocations, %d contended opens\n\n",
		fpp.Log.NumEvents(), fpp.FS.Revocations, fpp.FS.SharedOpens)

	// Combine the runs into one event-log (192 cases in the paper) and
	// keep the calls recorded in experiment A.
	union := ssf.Log.Clone()
	for _, c := range fpp.Log.Cases() {
		if err := union.Add(c); err != nil {
			return err
		}
	}
	union = union.FilterCalls("read", "write", "openat")

	// Site abstraction f̄ at depth 1 separates $SCRATCH/ssf from
	// $SCRATCH/fpp (Figure 8b).
	site := ssf.Cfg.Site
	mapping := stinspector.NewEnvMapping(1,
		stinspector.PrefixVar{Prefix: site.Scratch, Var: "$SCRATCH"},
		stinspector.PrefixVar{Prefix: site.Home, Var: "$HOME"},
		stinspector.PrefixVar{Prefix: site.Software, Var: "$SOFTWARE"},
		stinspector.PrefixVar{Prefix: site.NodeLocal, Var: "Node Local"},
	)
	in := stinspector.FromEventLog(union).FilterPath(site.Scratch).WithMapping(mapping)
	st := in.Stats()

	fmt.Fprintln(w, "--- DFG restricted to $SCRATCH (compare with Figure 8b) ---")
	fmt.Fprint(w, stinspector.RenderText(in.DFG(), st, nil))

	ssfOpen := st.Get("openat:$SCRATCH/ssf")
	fppOpen := st.Get("openat:$SCRATCH/fpp")
	ssfWrite := st.Get("write:$SCRATCH/ssf")
	fppWrite := st.Get("write:$SCRATCH/fpp")
	fmt.Fprintf(w, "\ncontention summary:\n")
	fmt.Fprintf(w, "  openat load  ssf %.2f  vs  fpp %.2f\n", ssfOpen.RelDur, fppOpen.RelDur)
	fmt.Fprintf(w, "  write  load  ssf %.2f  vs  fpp %.2f\n", ssfWrite.RelDur, fppWrite.RelDur)
	fmt.Fprintf(w, "the shared file serializes opens and write-token transfers;\n")
	fmt.Fprintf(w, "per-process files avoid both at a small metadata cost.\n")
	return nil
}
