package garvey

import (
	"context"
	"testing"

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
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(31), 64)
	if err != nil {
		t.Fatal(err)
	}
	return s, ds
}

func TestDimensionGroupsCoverSearchedParams(t *testing.T) {
	groups := dimensionGroups()
	if len(groups) != 4 {
		t.Fatalf("expected 4 expert groups, got %d", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		for _, p := range g {
			if seen[p] {
				t.Fatalf("parameter %d in two groups", p)
			}
			seen[p] = true
		}
	}
	// Memory flags are intentionally absent (fixed by the forest).
	if seen[space.UseShared] || seen[space.UseConstant] {
		t.Fatal("memory flags must not be re-searched")
	}
	// Every x/y/z geometry parameter is covered.
	for _, p := range []int{space.TBX, space.UFY, space.CMZ, space.BMX, space.SD, space.SB} {
		if !seen[p] {
			t.Fatalf("parameter %d missing from groups", p)
		}
	}
}

func TestPredictMemoryType(t *testing.T) {
	_, ds := fixture(t)
	sh, co, err := predictMemoryType(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{sh, co} {
		if v != space.Off && v != space.On {
			t.Fatalf("prediction outside {Off,On}: %d/%d", sh, co)
		}
	}
	// Deterministic: the forest is seeded.
	sh2, co2, err := predictMemoryType(ds)
	if err != nil || sh != sh2 || co != co2 {
		t.Fatal("memory prediction not deterministic")
	}
}

func TestEnumerateSize(t *testing.T) {
	s, _ := fixture(t)
	sp := s.Space()
	combos := enumerate(sp, []int{space.UseStreaming, space.SD})
	if len(combos) != 2*3 {
		t.Fatalf("enumerate = %d combos, want 6", len(combos))
	}
	for _, c := range combos {
		if len(c) != 2 {
			t.Fatalf("combo width %d", len(c))
		}
	}
}

func TestSampleRatio(t *testing.T) {
	rng := stats.NewRand(1)
	combos := make([][]int, 100)
	for i := range combos {
		combos[i] = []int{i}
	}
	out := sample(combos, 0.1, rng)
	if len(out) != 10 {
		t.Fatalf("sampled %d of 100 at 10%%", len(out))
	}
	// No duplicates.
	seen := map[int]bool{}
	for _, c := range out {
		if seen[c[0]] {
			t.Fatal("duplicate sample")
		}
		seen[c[0]] = true
	}
	if got := sample(combos, 1.0, rng); len(got) != 100 {
		t.Fatal("ratio 1 should keep everything")
	}
	if got := sample(combos, 0.0001, rng); len(got) != 1 {
		t.Fatal("tiny ratio keeps at least one")
	}
}

func TestTuneImprovesOnDefault(t *testing.T) {
	s, ds := fixture(t)
	g := New()
	eng := engine.New(s)
	if err := g.Tune(context.Background(), eng, ds, 5, nil); err != nil {
		t.Fatal(err)
	}
	best, ms, _ := eng.Best()
	def, err := s.Measure(s.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if ms >= def {
		t.Fatalf("garvey best %.3f no better than default %.3f", ms, def)
	}
	if err := s.Space().Validate(best); err != nil {
		t.Fatal(err)
	}
}
