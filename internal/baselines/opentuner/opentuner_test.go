package opentuner

import (
	"math"
	"testing"

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
	g := newGlobalGA(sp, rng)
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
