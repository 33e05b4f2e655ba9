// Command tracegen generates trace inputs for the pipeline. Without
// -profile it emits the paper's running example: the ls and ls -l
// commands executed by three MPI processes each (Figures 1 and 2),
// written as strace-format files whose statistics reproduce the
// annotations of Figure 3. With -profile it runs one of the named
// scenario-matrix generators (heavytail, burst, hostileargs, widevocab,
// multitenant, baseline), each deterministic in
// (profile, cid, cases, events, seed).
//
//	tracegen -outdir traces/                       # paper demo traces
//	tracegen -archive demo.sta                     # consolidated event-log
//	tracegen -list-profiles                        # name + description
//	tracegen -profile heavytail -cases 32 -events 200 -seed 7 -outdir t/
//
// -outdir writes a directory of .st files and -archive the consolidated
// STA archive; give either or both.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stinspector"
	"stinspector/internal/cliutil"
	"stinspector/internal/lssim"
	"stinspector/internal/strace"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

func main() {
	os.Exit(cliutil.Report(os.Stderr, "tracegen", run(os.Args[1:])))
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	outdir := fs.String("outdir", "", "write strace files into this directory")
	archiveOut := fs.String("archive", "", "write a consolidated .sta event-log")
	host := fs.String("host", "host1", "host name used in demo trace file names")
	profile := fs.String("profile", "", "scenario-matrix generator profile (see -list-profiles); empty runs the paper demo")
	list := fs.Bool("list-profiles", false, "list the available generator profiles and exit")
	nCases := fs.Int("cases", 16, "profile mode: cases to generate")
	perCase := fs.Int("events", 120, "profile mode: events per case")
	seed := fs.Int64("seed", 1, "profile mode: generator seed")
	cid := fs.String("cid", "gen", "profile mode: collective id stem (no underscores)")
	if err := fs.Parse(args); err != nil {
		return cliutil.Usage(err)
	}
	if fs.NArg() > 0 {
		return cliutil.Usagef("unexpected operand %q", fs.Arg(0))
	}

	if *list {
		for _, p := range profiles.All() {
			fmt.Printf("%-12s %s\n", p.Name, p.Desc)
		}
		return nil
	}
	if *outdir == "" && *archiveOut == "" {
		return cliutil.Usagef("need -outdir DIR and/or -archive FILE")
	}

	var cx *trace.EventLog
	if *profile != "" {
		p, ok := profiles.Lookup(*profile)
		if !ok {
			return cliutil.Usagef("unknown profile %q (have %v)", *profile, profiles.Names())
		}
		if *nCases < 1 || *perCase < 1 {
			return cliutil.Usagef("-cases and -events must be >= 1")
		}
		if strings.Contains(*cid, "_") {
			return cliutil.Usagef("-cid %q: underscores collide with the <cid>_<host>_<rid>.st file-name grammar", *cid)
		}
		hostSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "host" {
				hostSet = true
			}
		})
		if hostSet {
			return cliutil.Usagef("-host applies to the paper demo only; profiles assign hosts deterministically")
		}
		cx = p.Generate(*cid, *nCases, *perCase, *seed)
	} else {
		_, _, demo := lssim.Both(lssim.Config{Host: *host})
		cx = demo
	}

	if *outdir != "" {
		if err := strace.WriteDir(*outdir, cx); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace files to %s\n", cx.NumCases(), *outdir)
	}
	if *archiveOut != "" {
		if err := stinspector.WriteArchive(*archiveOut, cx); err != nil {
			return err
		}
		fmt.Printf("wrote event-log archive %s (%d events)\n", *archiveOut, cx.NumEvents())
	}
	return nil
}
