// Package harness runs the paper's evaluation (Sec. V): the motivation
// studies (Figs. 2–4), the iso-iteration and iso-time comparisons of the
// four auto-tuning methods (Figs. 8–10), the sampling-ratio sensitivity
// sweep (Fig. 11), the overhead breakdown (Fig. 12), and the two tables.
//
// Because the GPU is simulated, auto-tuning "time" is metered with a
// virtual clock: every measured setting is charged a compilation cost plus
// its kernel runs, every rejected setting a constraint-check cost. The
// iso-time protocol compares methods at equal virtual seconds, exactly as
// the paper compares them at equal wall-clock seconds on the testbed.
//
// The metering itself lives in internal/engine — the unified evaluation
// engine every tuner measures through; the harness "meter" is an engine
// with its constant cost model and a budget.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baselines"
	"repro/internal/baselines/artemis"
	"repro/internal/baselines/cstuner"
	"repro/internal/baselines/garvey"
	"repro/internal/baselines/opentuner"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/plot"
	"repro/internal/stencil"
)

// Options scales the evaluation: the paper's full protocol (10 repeats,
// 100-second budgets, 8 stencils) versus quick smoke runs.
type Options struct {
	Stencils    []*stencil.Stencil
	Arch        *gpu.Arch
	DatasetSize int     // offline dataset samples (paper: 128)
	Repeats     int     // runs averaged per method (paper: 10)
	Iterations  int     // iso-iteration x-axis length (paper plots 10)
	PopSize     int     // settings per iteration (GA population, 2x16)
	BudgetS     float64 // iso-time budget in virtual seconds (paper: 100)
	Seed        int64
	// ArtifactDir, when non-empty, receives SVG and CSV renderings of each
	// figure (fig8_<stencil>.svg/.csv, ...) alongside the text output.
	ArtifactDir string
}

// DefaultOptions mirrors the paper's protocol.
func DefaultOptions() Options {
	return Options{
		Stencils:    stencil.Suite(),
		Arch:        gpu.A100(),
		DatasetSize: 128,
		Repeats:     10,
		Iterations:  10,
		PopSize:     32,
		BudgetS:     100,
		Seed:        1,
	}
}

// QuickOptions shrinks everything for tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Stencils = []*stencil.Stencil{stencil.J3D7PT(), stencil.Helmholtz()}
	o.DatasetSize = 64
	o.Repeats = 2
	o.BudgetS = 40
	return o
}

// Methods returns the four compared tuners, csTuner first (paper order).
func Methods() []baselines.Tuner {
	return []baselines.Tuner{cstuner.New(), garvey.New(), opentuner.New(), artemis.New()}
}

// methodsFor returns Methods with csTuner's dataset sized by o and, under
// budgets below 100 s, its candidate pool trimmed to 1,024, so repeated
// harness runs stay fast while preserving the pipeline structure.
func methodsFor(o Options) []baselines.Tuner {
	ms := Methods()
	cs := ms[0].(*cstuner.Tuner)
	cs.Cfg.DatasetSize = o.DatasetSize
	if o.BudgetS < 100 {
		cs.Cfg.Sampling.PoolSize = 1024
	}
	return ms
}

// Fig8 runs the iso-iteration comparison and writes one block per stencil:
// rows are methods, columns the best-so-far kernel time (ms) after each
// iteration. NaN prints as "-" (the paper's missing points).
func Fig8(w io.Writer, o Options) error {
	methods := methodsFor(o)
	for _, st := range o.Stencils {
		fx, err := NewFixture(st, o.Arch, o.DatasetSize, o.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Fig8 %s (best ms after k iterations of %d evals, mean of %d runs)\n",
			st.Name, o.PopSize, o.Repeats)
		series := map[string][]float64{}
		for _, m := range methods {
			curve, err := MeanOverSeeds(o.Repeats, o.Seed, func(seed int64) ([]float64, error) {
				return IsoIterationCurve(context.Background(), m, fx, o.Iterations, o.PopSize, seed)
			})
			if err != nil {
				return fmt.Errorf("fig8 %s/%s: %w", st.Name, m.Name(), err)
			}
			fmt.Fprintf(w, "%-10s %s\n", m.Name(), formatCurve(curve))
			series[m.Name()] = curve
		}
		if err := emitArtifacts(o, "fig8_"+st.Name, &plot.Chart{
			Title:  "Fig.8 " + st.Name + " (iso-iteration)",
			XLabel: "iterations", YLabel: "best kernel ms",
			Series: plot.SortedSeries(series),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Fig9 runs the iso-time comparison: best-so-far kernel time on a uniform
// virtual-time grid up to the budget.
func Fig9(w io.Writer, o Options) error {
	methods := methodsFor(o)
	const gridN = 10
	for _, st := range o.Stencils {
		fx, err := NewFixture(st, o.Arch, o.DatasetSize, o.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Fig9 %s (best ms over %gs budget, mean of %d runs)\n",
			st.Name, o.BudgetS, o.Repeats)
		series := map[string][]float64{}
		for _, m := range methods {
			curve, err := MeanOverSeeds(o.Repeats, o.Seed, func(seed int64) ([]float64, error) {
				res, err := IsoTimeRun(context.Background(), m, fx, o.BudgetS, gridN, seed)
				if err != nil {
					return nil, err
				}
				return res.Curve, nil
			})
			if err != nil {
				return fmt.Errorf("fig9 %s/%s: %w", st.Name, m.Name(), err)
			}
			fmt.Fprintf(w, "%-10s %s\n", m.Name(), formatCurve(curve))
			series[m.Name()] = curve
		}
		grid := make([]float64, gridN)
		for i := range grid {
			grid[i] = o.BudgetS * float64(i+1) / float64(gridN)
		}
		if err := emitArtifacts(o, "fig9_"+st.Name, &plot.Chart{
			Title:  "Fig.9 " + st.Name + " (iso-time)",
			XLabel: "seconds", YLabel: "best kernel ms",
			X:      grid,
			Series: plot.SortedSeries(series),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Fig10Row is one stencil's iso-time performance normalized to Garvey.
type Fig10Row struct {
	Stencil string
	// Norm maps method name to Garvey-relative speedup (>1 = faster than
	// Garvey's best-found setting under the same budget).
	Norm map[string]float64
}

// Fig10 reproduces the V100 portability study: iso-time best performance of
// each method normalized to Garvey, plus the cross-stencil mean speedups of
// csTuner over the three baselines (paper: 1.7x / 1.2x / 1.2x).
func Fig10(w io.Writer, o Options) ([]Fig10Row, error) {
	o.Arch = gpu.V100() // re-collecting the dataset on the new hardware
	methods := methodsFor(o)
	var rows []Fig10Row
	sums := map[string]float64{}
	for _, st := range o.Stencils {
		fx, err := NewFixture(st, o.Arch, o.DatasetSize, o.Seed+77)
		if err != nil {
			return nil, err
		}
		best := map[string]float64{}
		for _, m := range methods {
			curve, err := MeanOverSeeds(o.Repeats, o.Seed, func(seed int64) ([]float64, error) {
				res, err := IsoTimeRun(context.Background(), m, fx, o.BudgetS, 0, seed)
				if err != nil {
					return nil, err
				}
				return []float64{res.BestMS}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig10 %s/%s: %w", st.Name, m.Name(), err)
			}
			best[m.Name()] = curve[0]
		}
		row := Fig10Row{Stencil: st.Name, Norm: map[string]float64{}}
		for name, ms := range best {
			row.Norm[name] = best["garvey"] / ms // higher = faster than Garvey
			sums[name] += row.Norm[name]
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "Fig10 %-11s", st.Name)
		for _, m := range methods {
			fmt.Fprintf(w, "  %s=%.2fx", m.Name(), row.Norm[m.Name()])
		}
		fmt.Fprintln(w)
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "Fig10 mean csTuner speedup: vs garvey %.2fx, vs opentuner %.2fx, vs artemis %.2fx\n",
		sums["cstuner"]/n, (sums["cstuner"]/n)/(sums["opentuner"]/n), (sums["cstuner"]/n)/(sums["artemis"]/n))
	return rows, nil
}

// Fig11 sweeps csTuner's sampling ratio (paper: 5%–50% stride 5%) under the
// iso-time budget and reports the best found time per ratio.
func Fig11(w io.Writer, o Options, ratios []float64) (map[string][]float64, error) {
	if len(ratios) == 0 {
		for r := 0.05; r <= 0.501; r += 0.05 {
			ratios = append(ratios, r)
		}
	}
	out := map[string][]float64{}
	for _, st := range o.Stencils {
		fx, err := NewFixture(st, o.Arch, o.DatasetSize, o.Seed)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(ratios))
		for i, ratio := range ratios {
			cs := cstuner.New()
			cs.Cfg.DatasetSize = o.DatasetSize
			cs.Cfg.Sampling.Ratio = ratio
			cs.Cfg.Sampling.PoolSize = 1024
			curve, err := MeanOverSeeds(o.Repeats, o.Seed, func(seed int64) ([]float64, error) {
				res, err := IsoTimeRun(context.Background(), cs, fx, o.BudgetS, 0, seed)
				if err != nil {
					return nil, err
				}
				return []float64{res.BestMS}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig11 %s ratio %.2f: %w", st.Name, ratio, err)
			}
			row[i] = curve[0]
		}
		out[st.Name] = row
		fmt.Fprintf(w, "Fig11 %-11s %s\n", st.Name, formatCurve(row))
	}
	if err := emitArtifacts(o, "fig11", &plot.Chart{
		Title:  "Fig.11 sampling-ratio sensitivity (iso-time)",
		XLabel: "sampling ratio", YLabel: "best kernel ms",
		X:      ratios,
		Series: plot.SortedSeries(out),
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig12Row is one stencil's pre-processing overhead breakdown.
type Fig12Row struct {
	Stencil  string
	Grouping time.Duration
	Sampling time.Duration
	Codegen  time.Duration
	SearchS  float64 // virtual search seconds
	// Ratio is total pre-processing over search time.
	Ratio float64
}

// Fig12 measures csTuner's pre-processing overhead (real wall-clock of
// grouping/sampling/codegen) against the search process (virtual seconds of
// compile+run), reproducing the 'negligible overhead' claim (~0.76% mean).
func Fig12(w io.Writer, o Options) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, st := range o.Stencils {
		fx, err := NewFixture(st, o.Arch, o.DatasetSize, o.Seed)
		if err != nil {
			return nil, err
		}
		cs := cstuner.New()
		cs.Cfg.DatasetSize = o.DatasetSize
		cs.Cfg.EmitKernels = true
		// The meter forwards the simulator's architecture, so code
		// generation runs inside the pipeline while measurements are
		// charged to the virtual clock.
		meter := engine.New(fx.Sim, engine.WithBudget(o.BudgetS))
		rep, err := core.Tune(meter, fx.DS, cs.Cfg, meter.Exhausted)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", st.Name, err)
		}
		row := Fig12Row{
			Stencil:  st.Name,
			Grouping: rep.Overhead.Grouping,
			Sampling: rep.Overhead.Sampling,
			Codegen:  rep.Overhead.Codegen,
			SearchS:  meter.SpentS(),
		}
		row.Ratio = rep.Overhead.Total().Seconds() / row.SearchS
		rows = append(rows, row)
		fmt.Fprintf(w, "Fig12 %-11s grouping=%v sampling=%v codegen=%v search=%.1fs ratio=%.3f%%\n",
			st.Name, row.Grouping, row.Sampling, row.Codegen, row.SearchS, 100*row.Ratio)
	}
	mean := 0.0
	for _, r := range rows {
		mean += r.Ratio
	}
	fmt.Fprintf(w, "Fig12 mean pre-processing/search = %.3f%%\n", 100*mean/float64(len(rows)))
	return rows, nil
}

// MotivationFigures prints Figs. 2–4 for every stencil in one pass over a
// shared random sample.
func MotivationFigures(w io.Writer, o Options, sampleN int) error {
	if sampleN <= 0 {
		sampleN = 20000 // paper Sec. III
	}
	var f2avgGood, f2avgBad, f3avg float64
	var tops [3]float64
	for _, st := range o.Stencils {
		fx, err := NewFixture(st, o.Arch, o.DatasetSize, o.Seed)
		if err != nil {
			return err
		}
		msample, err := CollectMotivation(fx, sampleN, o.Seed+5)
		if err != nil {
			return err
		}
		bins, err := Fig2Bins(msample)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatBins("Fig2 "+st.Name, bins))
		f2avgGood += bins[4]
		f2avgBad += bins[0]

		pbins, meanPct, err := Fig3Bins(msample)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatBins("Fig3 "+st.Name, pbins))
		f3avg += meanPct

		top, err := Fig4TopN(msample, []int{10, 50, 100})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig4 %-11s top-10=%.1f%% top-50=%.1f%% top-100=%.1f%%\n",
			st.Name, 100*top[0], 100*top[1], 100*top[2])
		for i := range tops {
			tops[i] += top[i]
		}
	}
	n := float64(len(o.Stencils))
	fmt.Fprintf(w, "Fig2 mean: %.1f%% within 20%% of optimum, %.1f%% worse than 5x (paper: 5.1%% / 24.2%%)\n",
		100*f2avgGood/n, 100*f2avgBad/n)
	fmt.Fprintf(w, "Fig3 mean pair disagreement: %.1f%% (paper: 28.6%%)\n", 100*f3avg/n)
	fmt.Fprintf(w, "Fig4 mean: top-10=%.1f%% top-50=%.1f%% top-100=%.1f%% (paper: 96.7/92.4/90.1)\n",
		100*tops[0]/n, 100*tops[1]/n, 100*tops[2]/n)
	return nil
}

// emitArtifacts writes <name>.svg and <name>.csv into o.ArtifactDir when it
// is configured.
func emitArtifacts(o Options, name string, c *plot.Chart) error {
	if o.ArtifactDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.ArtifactDir, 0o755); err != nil {
		return fmt.Errorf("harness: artifacts: %w", err)
	}
	svg, err := os.Create(filepath.Join(o.ArtifactDir, name+".svg"))
	if err != nil {
		return err
	}
	if err := c.WriteSVG(svg); err != nil {
		_ = svg.Close() // write already failed; its error wins
		return err
	}
	if err := svg.Close(); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(o.ArtifactDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := c.WriteCSV(csv); err != nil {
		_ = csv.Close() // write already failed; its error wins
		return err
	}
	return csv.Close()
}

// formatCurve renders a float series, NaN as "-".
func formatCurve(xs []float64) string {
	out := ""
	for i, v := range xs {
		if i > 0 {
			out += " "
		}
		if math.IsNaN(v) {
			out += "     -"
		} else {
			out += fmt.Sprintf("%6.2f", v)
		}
	}
	return out
}
