// Command stbench regenerates the paper's evaluation artifacts: every
// figure of the methodology section (Figures 2-5) and the IOR
// experiments (Figures 8 and 9), plus the ablations of the contention
// mechanisms. For each experiment it prints the regenerated artifact
// (DFG listings, DOT documents, timelines) and a table of
// paper-vs-measured checks; the exit status is non-zero if any check
// fails.
//
//	stbench -fig all
//	stbench -fig fig8b -ranks 96 -hosts 2
//	stbench -fig fig9 -checks-only
//
// Timing lives in the repository benchmark (bench/README.md); the
// scenario matrix is TestScenarioMatrix in this package's tests.
//
// Exit status: 0 on success (including -h), 2 for command-line (usage)
// errors, 1 for runtime failures (including failed checks).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stinspector/internal/cliutil"
	"stinspector/internal/experiments"
)

func main() {
	os.Exit(cliutil.Report(os.Stderr, "stbench", run(os.Args[1:])))
}

func run(args []string) error {
	fs := flag.NewFlagSet("stbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment id ("+strings.Join(experiments.IDs, ", ")+") or 'all'")
	ranks := fs.Int("ranks", 96, "IOR experiment ranks")
	hosts := fs.Int("hosts", 2, "IOR experiment hosts")
	segments := fs.Int("segments", 3, "IOR segments")
	transfers := fs.Int("transfers", 16, "transfers per block")
	seed := fs.Int64("seed", 20240924, "simulation seed")
	checksOnly := fs.Bool("checks-only", false, "print only the check tables, not the artifacts")
	if err := fs.Parse(args); err != nil {
		return cliutil.Usage(err)
	}

	scale := experiments.Scale{
		Ranks:             *ranks,
		Hosts:             *hosts,
		Segments:          *segments,
		TransfersPerBlock: *transfers,
		Seed:              *seed,
	}

	var reports []*experiments.Report
	if *fig == "all" {
		all, err := experiments.RunAll(scale)
		if err != nil {
			return err
		}
		reports = all
	} else {
		r, err := experiments.Run(*fig, scale)
		if err != nil {
			return err
		}
		reports = []*experiments.Report{r}
	}

	failed := 0
	for _, r := range reports {
		if !*checksOnly {
			fmt.Printf("\n================ %s: %s ================\n", r.ID, r.Title)
			fmt.Println(r.Text)
		}
		fmt.Println(r.Summary())
		failed += len(r.Failed())
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	fmt.Println("all checks passed")
	return nil
}
