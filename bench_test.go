package cstuner

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark runs the corresponding
// experiment at a bounded scale (the cmd/experiments tool runs the full
// protocol) and reports the headline number the paper's artifact would —
// best-found kernel time, distribution mass, or overhead ratio — via
// b.ReportMetric, so `go test -bench=.` regenerates every result series.

import (
	"context"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/stencil"
)

// benchOptions is the bounded scale used by the benchmarks.
func benchOptions() harness.Options {
	o := harness.QuickOptions()
	o.Stencils = []*stencil.Stencil{stencil.Helmholtz()}
	o.Repeats = 1
	o.DatasetSize = 64
	o.BudgetS = 30
	return o
}

func benchFixture(b *testing.B, o harness.Options) *harness.Fixture {
	b.Helper()
	fx, err := harness.NewFixture(o.Stencils[0], o.Arch, o.DatasetSize, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	return fx
}

func BenchmarkTable1ParameterSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Table1(io.Discard, stencil.J3D7PT()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3StencilSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table3(io.Discard)
	}
}

func BenchmarkFig2SpeedupDistribution(b *testing.B) {
	o := benchOptions()
	fx := benchFixture(b, o)
	var worst, bestBin float64
	for i := 0; i < b.N; i++ {
		ms, err := harness.CollectMotivation(fx, 400, o.Seed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		bins, err := harness.Fig2Bins(ms)
		if err != nil {
			b.Fatal(err)
		}
		worst, bestBin = bins[0], bins[4]
	}
	b.ReportMetric(100*worst, "%worst-bin")
	b.ReportMetric(100*bestBin, "%within-20pct")
}

func BenchmarkFig3PairCorrelation(b *testing.B) {
	o := benchOptions()
	fx := benchFixture(b, o)
	ms, err := harness.CollectMotivation(fx, 400, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := harness.Fig3Bins(ms)
		if err != nil {
			b.Fatal(err)
		}
		mean = m
	}
	b.ReportMetric(100*mean, "%pair-disagreement")
}

func BenchmarkFig4TopN(b *testing.B) {
	o := benchOptions()
	fx := benchFixture(b, o)
	ms, err := harness.CollectMotivation(fx, 400, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	var top10 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tops, err := harness.Fig4TopN(ms, []int{10, 50, 100})
		if err != nil {
			b.Fatal(err)
		}
		top10 = tops[0]
	}
	b.ReportMetric(100*top10, "%top10-speedup")
}

func BenchmarkFig8IsoIteration(b *testing.B) {
	o := benchOptions()
	fx := benchFixture(b, o)
	methods := harness.Methods()
	var last float64
	for i := 0; i < b.N; i++ {
		curve, err := harness.IsoIterationCurve(context.Background(), methods[0], fx, 5, o.PopSize, o.Seed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		last = curve[len(curve)-1]
	}
	b.ReportMetric(last, "best-ms@5iter")
}

func BenchmarkFig9IsoTime(b *testing.B) {
	o := benchOptions()
	fx := benchFixture(b, o)
	methods := harness.Methods()
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := harness.IsoTimeRun(context.Background(), methods[0], fx, o.BudgetS, 0, o.Seed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		best = res.BestMS
	}
	b.ReportMetric(best, "best-ms@budget")
}

func BenchmarkFig10V100(b *testing.B) {
	o := benchOptions()
	o.Stencils = []*stencil.Stencil{stencil.J3D7PT()}
	var norm float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig10(io.Discard, o)
		if err != nil {
			b.Fatal(err)
		}
		norm = rows[0].Norm["cstuner"]
	}
	b.ReportMetric(norm, "cstuner-vs-garvey-x")
}

func BenchmarkFig11SamplingRatio(b *testing.B) {
	o := benchOptions()
	var bestAt10 float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig11(io.Discard, o, []float64{0.10, 0.30})
		if err != nil {
			b.Fatal(err)
		}
		bestAt10 = rows[o.Stencils[0].Name][0]
	}
	b.ReportMetric(bestAt10, "best-ms@ratio10")
}

func BenchmarkFig12Overhead(b *testing.B) {
	o := benchOptions()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig12(io.Discard, o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].Ratio
	}
	b.ReportMetric(100*ratio, "%preproc-vs-search")
}

// ---- Ablation benches (DESIGN.md §8): quantify each design choice ---------

// ablationTune runs csTuner with a modified config and reports the best
// time under a fixed budget.
func ablationTune(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	o := benchOptions()
	fx := benchFixture(b, o)
	var best float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.DatasetSize = o.DatasetSize
		cfg.Seed = o.Seed + int64(i)
		cfg.EmitKernels = false
		mutate(&cfg)
		meter := engine.New(fx.Sim, engine.WithBudget(o.BudgetS))
		rep, err := core.TuneCtx(context.Background(), meter, fx.DS, cfg, meter.Exhausted)
		if err != nil {
			b.Fatal(err)
		}
		best = rep.BestMS
	}
	if math.IsNaN(best) {
		b.Fatal("no result")
	}
	b.ReportMetric(best, "best-ms")
}

func BenchmarkAblationFull(b *testing.B) {
	ablationTune(b, func(cfg *core.Config) {})
}

// BenchmarkAblationNoGrouping degrades Algorithm 1 to singleton groups,
// removing the correlation structure from both PMNF and the group search.
func BenchmarkAblationNoGrouping(b *testing.B) {
	ablationTune(b, func(cfg *core.Config) { cfg.MaxGroupSize = 1 })
}

// BenchmarkAblationNoApproximation disables the CV(top-n) stop rule, forcing
// every group's GA to its generation cap.
func BenchmarkAblationNoApproximation(b *testing.B) {
	ablationTune(b, func(cfg *core.Config) { cfg.GA.CVThreshold = 0 })
}

// BenchmarkAblationWideSampling keeps half the candidate pool instead of
// 10%, diluting the PMNF guidance.
func BenchmarkAblationWideSampling(b *testing.B) {
	ablationTune(b, func(cfg *core.Config) { cfg.Sampling.Ratio = 0.5 })
}
