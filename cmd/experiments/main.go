// Command experiments regenerates every table and figure of the paper's
// evaluation section against the simulated GPUs.
//
// Usage:
//
//	experiments -table 1          # Table I (parameter space)
//	experiments -table 3          # Table III (stencil suite)
//	experiments -fig 2            # Figs. 2–4 share one motivation sample
//	experiments -fig 8 -quick     # iso-iteration comparison, smoke scale
//	experiments -fig 9            # iso-time comparison
//	experiments -fig 10           # V100 portability, normalized to Garvey
//	experiments -fig 11           # sampling-ratio sensitivity
//	experiments -fig 12           # pre-processing overhead breakdown
//	experiments -all -quick       # everything at smoke scale
//
// Crash-safe campaigns journal every measurement episode but constraint
// rejections, which resume re-checks, so a killed run resumes where it
// stopped (DESIGN.md §6):
//
//	experiments -campaign cstuner -journal run.wal -budget 40   # start
//	experiments -campaign cstuner -journal run.wal -budget 40 -resume
//
// Warm-started tuning from a shared result store (DESIGN.md §13):
//
//	experiments -warmstart 8 -budget 40 -quick
//
// Full-protocol runs (-repeats 10, all eight stencils, 20k motivation
// samples) reproduce the paper's setup in 10–20 s on a 2-vCPU host; -quick
// keeps every experiment's structure at reduced scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stencil"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (2, 3, 4, 8, 9, 10, 11, 12)")
		table     = flag.Int("table", 0, "table to regenerate (1 or 3)")
		all       = flag.Bool("all", false, "regenerate everything")
		ablation  = flag.Bool("ablation", false, "run the design-choice ablation study")
		quick     = flag.Bool("quick", false, "smoke scale: fewer stencils, repeats and samples")
		arch      = flag.String("arch", "a100", "GPU architecture: a100 or v100")
		stencils  = flag.String("stencils", "", "comma-separated stencil subset (default: per protocol)")
		repeats   = flag.Int("repeats", 0, "runs averaged per method (default: protocol)")
		samples   = flag.Int("samples", 0, "motivation sample size for figs 2-4 (default 20000, quick 2000)")
		budget    = flag.Float64("budget", 0, "iso-time virtual budget seconds (default 100)")
		seed      = flag.Int64("seed", 1, "base random seed")
		artifacts = flag.String("artifacts", "", "directory for SVG/CSV figure artifacts")
		campaign  = flag.String("campaign", "", "run one crash-safe campaign: cstuner, opentuner, garvey or artemis")
		jpath     = flag.String("journal", "", "write-ahead journal path for -campaign (enables crash-safe resume)")
		resume    = flag.Bool("resume", false, "require the -journal file to exist and resume it")
		warmstart = flag.Int("warmstart", 0, "cold-vs-warm comparison: run a cold campaign into a fresh store, then a warm campaign seeded with that many of its bests")
		storeDir  = flag.String("store", "", "result-store directory for -warmstart (default: a temp dir)")
	)
	flag.Parse()

	o := harness.DefaultOptions()
	if *quick {
		o = harness.QuickOptions()
	}
	a, err := gpu.ByName(*arch)
	if err != nil {
		fail(err)
	}
	o.Arch = a
	o.Seed = *seed
	if *repeats > 0 {
		o.Repeats = *repeats
	}
	if *budget > 0 {
		o.BudgetS = *budget
	}
	o.ArtifactDir = *artifacts
	if *stencils != "" {
		o.Stencils = nil
		for _, name := range strings.Split(*stencils, ",") {
			st := stencil.ByName(strings.TrimSpace(name))
			if st == nil {
				fail(fmt.Errorf("unknown stencil %q", name))
			}
			o.Stencils = append(o.Stencils, st)
		}
	}
	motivN := *samples
	if motivN == 0 {
		motivN = 20000
		if *quick {
			motivN = 2000
		}
	}

	w := os.Stdout
	ran := false
	run := func(name string, f func() error) {
		ran = true
		fmt.Fprintf(w, "\n==== %s ====\n", name)
		if err := f(); err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
	}

	if *all || *table == 1 {
		run("Table I", func() error { return harness.Table1(w, o.Stencils[0]) })
	}
	if *all || *table == 3 {
		run("Table III", func() error { harness.Table3(w); return nil })
	}
	if *all || *fig == 2 || *fig == 3 || *fig == 4 {
		run("Figures 2-4 (motivation)", func() error { return harness.MotivationFigures(w, o, motivN) })
	}
	if *all || *fig == 8 {
		run("Figure 8 (iso-iteration)", func() error { return harness.Fig8(w, o) })
	}
	if *all || *fig == 9 {
		run("Figure 9 (iso-time)", func() error { return harness.Fig9(w, o) })
	}
	if *all || *fig == 10 {
		run("Figure 10 (V100, normalized to Garvey)", func() error {
			_, err := harness.Fig10(w, o)
			return err
		})
	}
	if *all || *fig == 11 {
		run("Figure 11 (sampling-ratio sensitivity)", func() error {
			ratios := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}
			if *quick {
				ratios = []float64{0.05, 0.10, 0.25, 0.50}
			}
			_, err := harness.Fig11(w, o, ratios)
			return err
		})
	}
	if *all || *fig == 12 {
		run("Figure 12 (pre-processing overhead)", func() error {
			_, err := harness.Fig12(w, o)
			return err
		})
	}
	if *all || *ablation {
		run("Ablation (design choices, DESIGN.md §8)", func() error {
			_, err := harness.Ablation(w, o)
			return err
		})
	}
	if *campaign != "" {
		run("Campaign "+*campaign, func() error {
			if *resume {
				if *jpath == "" {
					return fmt.Errorf("-resume requires -journal")
				}
				if _, err := os.Stat(*jpath); err != nil {
					return fmt.Errorf("-resume: no journal at %s: %w", *jpath, err)
				}
			}
			fx, err := harness.NewFixture(o.Stencils[0], o.Arch, o.DatasetSize, o.Seed)
			if err != nil {
				return err
			}
			res, err := harness.RunCampaign(context.Background(), fx, harness.CampaignConfig{
				Method:      *campaign,
				BudgetS:     o.BudgetS,
				Seed:        o.Seed,
				JournalPath: *jpath,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "stencil=%s method=%s budget=%gs\n", o.Stencils[0].Name, *campaign, o.BudgetS)
			if res.Replayed > 0 {
				fmt.Fprintf(w, "resumed: %d episodes replayed from %s\n", res.Replayed, *jpath)
			}
			fmt.Fprintf(w, "best=%v bestms=%.6f evals=%d spent=%.1fs\n",
				res.Best, res.BestMS, res.Stats.Evaluations, res.Stats.SpentS)
			return nil
		})
	}

	if *warmstart > 0 {
		run("Warm start (cold vs warm campaign)", func() error {
			dir := *storeDir
			if dir == "" {
				tmp, err := os.MkdirTemp("", "cstuner-store-")
				if err != nil {
					return err
				}
				defer func() { _ = os.RemoveAll(tmp) }()
				dir = tmp
			}
			fx, err := harness.NewFixture(o.Stencils[0], o.Arch, o.DatasetSize, o.Seed)
			if err != nil {
				return err
			}
			rep, err := harness.WarmStartCompare(context.Background(), fx, harness.CampaignConfig{
				Method:  "cstuner",
				BudgetS: o.BudgetS,
				Seed:    o.Seed,
			}, dir, *warmstart)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "stencil=%s budget=%gs seeds=%d\n", o.Stencils[0].Name, o.BudgetS, len(rep.WarmKeys))
			fmt.Fprintf(w, "cold: best=%.6fms evals-to-best=%d evals=%d\n", rep.ColdBestMS, rep.ColdEvalsToBest, rep.ColdEvals)
			fmt.Fprintf(w, "warm: best=%.6fms evals-to-cold-best=%d evals=%d\n", rep.WarmBestMS, rep.WarmEvalsToBest, rep.WarmEvals)
			if rep.ColdEvalsToBest > 0 && rep.WarmEvalsToBest >= 0 {
				fmt.Fprintf(w, "warm reached the cold best with %.0f%% of the cold run's measurements\n",
					100*float64(rep.WarmEvalsToBest)/float64(rep.ColdEvalsToBest))
			}
			return nil
		})
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
