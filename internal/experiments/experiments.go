// Package experiments regenerates every evaluation artifact of the paper:
// the methodology figures on the ls / ls -l example (Figures 2-5), the
// IOR single-shared-file vs file-per-process comparison (Figure 8), the
// POSIX vs MPI-IO comparison (Figure 9), and the ablations of the
// filesystem contention mechanisms. Each experiment renders the paper's
// artifact as text and evaluates paper-vs-measured checks; the cmd/stbench
// binary and the test suite both run through this package, so "what the
// benchmark prints" and "what the tests assert" cannot drift apart.
package experiments

import (
	"fmt"
	"strings"

	"stinspector/internal/iorsim"
	"stinspector/internal/pm"
)

// Check is one paper-vs-measured assertion.
type Check struct {
	Name string
	Pass bool
	Got  string
	Want string
}

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Text   string
	Checks []Check
}

// Failed returns the failing checks.
func (r *Report) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders a short pass/fail table.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-52s got %-24s want %s\n", mark, c.Name, c.Got, c.Want)
	}
	return b.String()
}

func (r *Report) check(name string, pass bool, got, want string) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Got: got, Want: want})
}

func (r *Report) checkInt(name string, got, want int) {
	r.check(name, got == want, fmt.Sprintf("%d", got), fmt.Sprintf("%d", want))
}

func (r *Report) checkRange(name string, got, lo, hi float64) {
	r.check(name, got >= lo && got <= hi, fmt.Sprintf("%.4f", got), fmt.Sprintf("[%.2f, %.2f]", lo, hi))
}

// Scale sets the size of the IOR experiments. The zero value is replaced
// by the paper's full configuration (96 ranks over 2 hosts, 3 segments of
// one 16 MiB block in 1 MiB transfers).
type Scale struct {
	Ranks             int
	Hosts             int
	Segments          int
	TransfersPerBlock int
	Seed              int64
	// NoPreamble drops the startup I/O (used by reduced-scale tests).
	NoPreamble bool
}

func (s Scale) withDefaults() Scale {
	if s.Ranks <= 0 {
		s.Ranks = 96
	}
	if s.Hosts <= 0 {
		s.Hosts = 2
	}
	if s.Segments <= 0 {
		s.Segments = 3
	}
	if s.TransfersPerBlock <= 0 {
		s.TransfersPerBlock = 16
	}
	if s.Seed == 0 {
		s.Seed = 20240924
	}
	return s
}

func (s Scale) iorConfig(cid string, fpp bool, api iorsim.API, baseRID int) iorsim.Config {
	return iorsim.Config{
		CID:          cid,
		Ranks:        s.Ranks,
		Hosts:        s.Hosts,
		BaseRID:      baseRID,
		TransferSize: 1 << 20,
		BlockSize:    int64(s.TransfersPerBlock) << 20,
		Segments:     s.Segments,
		Write:        true,
		Read:         true,
		Fsync:        true,
		ReorderTasks: true,
		FilePerProc:  fpp,
		API:          api,
		Preamble:     !s.NoPreamble,
		Seed:         s.Seed,
	}
}

// envMapping is the paper's f̄: site-variable abstraction of file paths,
// at the given depth below the variable.
func envMapping(site iorsim.Site, depth int) *pm.EnvMapping {
	return pm.NewEnvMapping(depth,
		pm.PrefixVar{Prefix: site.Scratch, Var: "$SCRATCH"},
		pm.PrefixVar{Prefix: site.Home, Var: "$HOME"},
		pm.PrefixVar{Prefix: site.Software, Var: "$SOFTWARE"},
		pm.PrefixVar{Prefix: site.NodeLocal, Var: "Node Local"},
		pm.PrefixVar{Prefix: "/tmp", Var: "Node Local"},
	)
}

// IDs lists the experiments in paper order.
var IDs = []string{"fig2", "fig3", "fig4", "fig5", "fig8a", "fig8b", "fig9", "ab-locks", "ab-skew", "wl-ckpt", "wl-meta", "wl-shlog"}

// Run executes one experiment by id.
func Run(id string, scale Scale) (*Report, error) {
	switch id {
	case "fig2":
		return fig2()
	case "fig3":
		return fig3()
	case "fig4":
		return fig4()
	case "fig5":
		return fig5()
	case "fig8a":
		return fig8a(scale)
	case "fig8b":
		return fig8b(scale)
	case "fig9":
		return fig9(scale)
	case "ab-locks":
		return ablationLocks(scale)
	case "ab-skew":
		return ablationSkew()
	case "wl-ckpt":
		return workloadCheckpoint()
	case "wl-meta":
		return workloadMetadataStorm()
	case "wl-shlog":
		return workloadSharedLog()
	default:
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs, ", "))
	}
}

// RunAll executes every experiment.
func RunAll(scale Scale) ([]*Report, error) {
	var out []*Report
	for _, id := range IDs {
		r, err := Run(id, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}
