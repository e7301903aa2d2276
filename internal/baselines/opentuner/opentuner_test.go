package opentuner

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func objective(t testing.TB) *sim.Simulator {
	t.Helper()
	sp, err := space.New(stencil.J3D27PT())
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(sp, gpu.A100())
}

func TestGlobalGAStepImproves(t *testing.T) {
	obj := objective(t)
	sp := obj.Space()
	rng := stats.NewRand(3)
	g := newGlobalGA(sp, rng, New())
	best := math.Inf(1)
	measure := func(s space.Setting) float64 {
		ms, err := obj.Measure(s)
		if err != nil {
			return math.Inf(1)
		}
		if ms < best {
			best = ms
		}
		return ms
	}
	first := math.Inf(1)
	for i := 0; i < 6; i++ {
		g.step(measure)
		if i == 0 {
			first = best
		}
	}
	if math.IsInf(best, 1) {
		t.Fatal("GA never measured a valid setting")
	}
	if best > first {
		t.Fatal("best-so-far regressed")
	}
}

func TestDEStep(t *testing.T) {
	obj := objective(t)
	rng := stats.NewRand(5)
	d := newDE(obj.Space(), rng, New())
	best := math.Inf(1)
	measure := func(s space.Setting) float64 {
		ms, err := obj.Measure(s)
		if err != nil {
			return math.Inf(1)
		}
		if ms < best {
			best = ms
		}
		return ms
	}
	for i := 0; i < 4; i++ {
		d.step(measure)
	}
	if math.IsInf(best, 1) {
		t.Fatal("DE never measured a valid setting")
	}
	// DE population entries must hold measured values (greedy replacement
	// never adopts a worse candidate).
	for _, ind := range d.pop {
		if math.IsNaN(ind.ms) {
			t.Fatal("unevaluated individual after stepping")
		}
	}
}

func TestHillClimberMovesDownhill(t *testing.T) {
	obj := objective(t)
	rng := stats.NewRand(7)
	h := newHill(obj.Space(), rng)
	measure := func(s space.Setting) float64 {
		ms, err := obj.Measure(s)
		if err != nil {
			return math.Inf(1)
		}
		return ms
	}
	h.step(measure)
	start := h.cur.ms
	for i := 0; i < 10; i++ {
		h.step(measure)
	}
	if h.cur.ms > start {
		t.Fatalf("hill climber went uphill: %.3f -> %.3f", start, h.cur.ms)
	}
}

func TestLessNaNOrdering(t *testing.T) {
	if less(math.NaN(), 1) {
		t.Fatal("NaN must sort after numbers")
	}
	if !less(1, math.NaN()) {
		t.Fatal("numbers must sort before NaN")
	}
	if !less(1, 2) || less(2, 1) {
		t.Fatal("basic ordering broken")
	}
}

func TestMutateAndCrossProduceInRange(t *testing.T) {
	obj := objective(t)
	sp := obj.Space()
	rng := stats.NewRand(11)
	a := sp.Random(rng)
	b := sp.Random(rng)
	for i := 0; i < 50; i++ {
		c := uniformCross(sp, a, b, rng)
		m := mutate(sp, c, 0.3, rng)
		for p := range m {
			if sp.Params[p].Index(m[p]) < 0 {
				t.Fatalf("mutation produced out-of-range %s=%d", sp.Params[p].Name, m[p])
			}
		}
	}
}

func TestBanditPrefersImprovingTechnique(t *testing.T) {
	// With the ensemble enabled, Tune must still find something decent —
	// the bandit can shift budget but never starve everything.
	obj := objective(t)
	ot := NewEnsemble()
	ot.MaxRounds = 10
	eng := engine.New(obj)
	if err := ot.Tune(context.Background(), eng, nil, 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, ms, ok := eng.Best(); !ok || ms <= 0 {
		t.Fatal("ensemble found nothing")
	}
}
