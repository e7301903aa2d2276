package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.DatasetSize = 64
	cfg.Sampling.PoolSize = 512
	cfg.GA.MaxGenerations = 12
	return cfg
}

func TestTuneEndToEnd(t *testing.T) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	rep, err := Tune(s, nil, quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == nil || rep.BestMS <= 0 {
		t.Fatalf("no best setting: %+v", rep)
	}
	if err := sp.Validate(rep.Best); err != nil {
		t.Fatalf("best setting invalid: %v", err)
	}
	if err := grouping.Validate(rep.Groups); err != nil {
		t.Fatalf("bad groups: %v", err)
	}
	if len(rep.SelectedMetrics) == 0 || len(rep.Models) != len(rep.SelectedMetrics) {
		t.Fatalf("metric selection/models inconsistent: %d vs %d",
			len(rep.SelectedMetrics), len(rep.Models))
	}
	if rep.SampledSize == 0 {
		t.Fatal("empty sampled space")
	}
	if rep.Evaluations == 0 {
		t.Fatal("search made no measurements")
	}
	if rep.GeneratedCUDA == 0 {
		t.Fatal("codegen emitted nothing")
	}
	if rep.Overhead.Total() <= 0 {
		t.Fatal("no overhead recorded")
	}
	// The tuned setting must beat the measured best of the random dataset
	// it started from — otherwise the search added nothing. (Compare with
	// a fresh dataset of the same size for an unbiased reference.)
	ds, err := dataset.Collect(s, stats.NewRand(123), 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestMS > ds.Best().TimeMS {
		t.Fatalf("tuned %.3f ms worse than a 64-sample random search %.3f ms",
			rep.BestMS, ds.Best().TimeMS)
	}
}

func TestTuneBestConsistency(t *testing.T) {
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	rep, err := Tune(s, nil, quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := s.Measure(rep.Best)
	if err != nil {
		t.Fatalf("reported best not measurable: %v", err)
	}
	if ms != rep.BestMS {
		t.Fatalf("reported %.6f ms but re-measurement gives %.6f ms", rep.BestMS, ms)
	}
}

func TestTuneWithProvidedDataset(t *testing.T) {
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(9), 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.EmitKernels = false
	rep, err := Tune(s, ds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GeneratedCUDA != 0 {
		t.Fatal("codegen ran despite EmitKernels=false")
	}
	if rep.BestMS > ds.Best().TimeMS {
		t.Fatal("tuner regressed below its own dataset optimum")
	}
}

func TestTuneSmallDatasetRejected(t *testing.T) {
	sp, _ := space.New(stencil.J3D7PT())
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tune(s, ds, quickConfig(), nil); err == nil {
		t.Fatal("tiny dataset should be rejected")
	}
}

func TestTuneStopShortCircuits(t *testing.T) {
	sp, _ := space.New(stencil.Cheby())
	s := sim.New(sp, gpu.A100())
	var n int64
	stop := func() bool { return atomic.AddInt64(&n, 1) > 40 }
	rep, err := Tune(s, nil, quickConfig(), stop)
	if err != nil {
		t.Fatal(err)
	}
	// The search polled stop and stopped early; evaluations stay small.
	if rep.Evaluations > 60 {
		t.Fatalf("stop ignored: %d evaluations", rep.Evaluations)
	}
	if rep.Best == nil {
		t.Fatal("even a stopped run must report the best seen so far")
	}
}

func TestTuneDeterministicForSeed(t *testing.T) {
	sp, _ := space.New(stencil.J3D27PT())
	s := sim.New(sp, gpu.A100())
	cfg := quickConfig()
	cfg.EmitKernels = false
	a, err := Tune(s, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(s, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Best.Equal(b.Best) || a.BestMS != b.BestMS || a.Evaluations != b.Evaluations {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.Best, a.BestMS, b.Best, b.BestMS)
	}
}

func TestGroupOrderLargestFirst(t *testing.T) {
	sp, _ := space.New(stencil.Helmholtz())
	s := sim.New(sp, gpu.A100())
	rep, err := Tune(s, nil, quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GroupOrder) != len(rep.Groups) {
		t.Fatalf("group order covers %d of %d groups", len(rep.GroupOrder), len(rep.Groups))
	}
}
