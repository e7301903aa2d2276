package cstuner

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func fixture(t testing.TB) (*sim.Simulator, *dataset.Dataset) {
	t.Helper()
	sp, err := space.New(stencil.J3D27PT())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(51), 64)
	if err != nil {
		t.Fatal(err)
	}
	return s, ds
}

func TestAdapterName(t *testing.T) {
	if New().Name() != "cstuner" {
		t.Fatal("wrong name")
	}
}

func TestAdapterSeedsConfig(t *testing.T) {
	s, ds := fixture(t)
	a := New()
	a.Cfg.Sampling.PoolSize = 256
	a.Cfg.GA.MaxGenerations = 6
	a.Cfg.EmitKernels = false
	tune := func(seed int64) *engine.Engine {
		eng := engine.New(s)
		if err := a.Tune(context.Background(), eng, ds, seed, nil); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	b1, ms1, ok1 := tune(11).Best()
	b2, ms2, ok2 := tune(11).Best()
	if !ok1 || !ok2 || !b1.Equal(b2) || ms1 != ms2 {
		t.Fatal("adapter not deterministic for a fixed seed")
	}
	// The adapter must pass the seed through: different seeds explore
	// differently (same result value is possible, identical eval counts
	// across many seeds are not).
	evals := map[int]bool{}
	for seed := int64(0); seed < 4; seed++ {
		evals[tune(seed).Stats().Evaluations] = true
	}
	if len(evals) == 1 {
		t.Log("all seeds evaluated identically (possible but suspicious)")
	}
}

func TestAdapterEmitsThroughSimulator(t *testing.T) {
	s, ds := fixture(t)
	a := New()
	a.Cfg.GA.MaxGenerations = 4
	a.Cfg.EmitKernels = true
	// The candidate pool is not filtered by the resource constraints, so
	// codegen emits only the sampled settings that build: 7 of 416 from
	// the default 4,096-candidate pool here, none of 32 from a 256 one.
	rep, err := core.Tune(engine.New(s), ds, a.Cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GeneratedCUDA == 0 || rep.GeneratedCUDA > rep.SampledSize {
		t.Fatalf("codegen emitted %d of %d sampled settings", rep.GeneratedCUDA, rep.SampledSize)
	}
}
