package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
)

// AblationRow is one (stencil, variant) cell of the design-choice ablation.
type AblationRow struct {
	Stencil string
	Variant string
	BestMS  float64
}

// ablationVariants enumerates the pipeline variants DESIGN.md §8 calls out:
// the full system, Algorithm 1 disabled (singleton groups), the CV(top-n)
// approximation stop disabled, and a diluted 50% sampling ratio.
func ablationVariants() []struct {
	name   string
	mutate func(*core.Config)
} {
	return []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full", func(cfg *core.Config) {}},
		{"no-grouping", func(cfg *core.Config) { cfg.MaxGroupSize = 1 }},
		{"no-approximation", func(cfg *core.Config) { cfg.GA.CVThreshold = 0 }},
		{"wide-sampling", func(cfg *core.Config) { cfg.Sampling.Ratio = 0.5 }},
	}
}

// Ablation runs every pipeline variant under the iso-time budget on every
// stencil, averaging over o.Repeats seeds, and prints one row per stencil.
func Ablation(w io.Writer, o Options) ([]AblationRow, error) {
	var rows []AblationRow
	variants := ablationVariants()
	for _, st := range o.Stencils {
		fx, err := NewFixture(st, o.Arch, o.DatasetSize, o.Seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "Ablation %-11s", st.Name)
		for _, v := range variants {
			curve, err := MeanOverSeeds(o.Repeats, o.Seed, func(seed int64) ([]float64, error) {
				cfg := core.DefaultConfig()
				cfg.DatasetSize = o.DatasetSize
				cfg.Seed = seed
				cfg.EmitKernels = false
				v.mutate(&cfg)
				meter := engine.New(fx.Sim, engine.WithBudget(o.BudgetS))
				rep, err := core.Tune(meter, fx.DS, cfg, meter.Exhausted)
				if err != nil {
					return nil, err
				}
				return []float64{rep.BestMS}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", st.Name, v.name, err)
			}
			rows = append(rows, AblationRow{Stencil: st.Name, Variant: v.name, BestMS: curve[0]})
			fmt.Fprintf(w, "  %s=%.3f", v.name, curve[0])
		}
		fmt.Fprintln(w)
	}
	return rows, nil
}
