package artemis

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func objective(t testing.TB, st *stencil.Stencil) *sim.Simulator {
	t.Helper()
	sp, err := space.New(st)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(sp, gpu.A100())
}

func TestLevel1CandidatesAreExpertCurated(t *testing.T) {
	obj := objective(t, stencil.J3D7PT())
	sp := obj.Space()
	cands := tbStreamingCandidates(sp)
	if len(cands) != 20*5 {
		t.Fatalf("level-1 candidates = %d, want 100", len(cands))
	}
	rng := stats.NewRand(2)
	valid := 0
	for _, c := range cands {
		sp.Repair(c, rng)
		if sp.Validate(c) == nil {
			valid++
		}
	}
	// Expert-curated shapes are nearly all explicitly legal.
	if valid < len(cands)*3/4 {
		t.Fatalf("only %d/%d curated candidates valid", valid, len(cands))
	}
	// Streamed candidates collapse the walked TB dimension.
	for _, c := range cands {
		if c[space.UseStreaming] == space.On && c[space.SD] == 3 && c[space.TBZ] != 1 {
			t.Fatal("streamed candidate keeps TBz > 1")
		}
	}
}

func TestTopOrdering(t *testing.T) {
	pool := []candidate{{ms: 3}, {ms: 1}, {ms: 2}}
	got := top(pool, 2)
	if len(got) != 2 || got[0].ms != 1 || got[1].ms != 2 {
		t.Fatalf("top = %v", got)
	}
	if got := top(nil, 3); len(got) != 0 {
		t.Fatal("top of empty should be empty")
	}
}

func TestTuneHierarchyImproves(t *testing.T) {
	obj := objective(t, stencil.AddSGD6())
	a := New()
	eng := engine.New(obj)
	if err := a.Tune(context.Background(), eng, nil, 4, nil); err != nil {
		t.Fatal(err)
	}
	best, ms, _ := eng.Best()
	def, err := obj.Measure(obj.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if ms >= def {
		t.Fatalf("artemis best %.3f no better than default %.3f", ms, def)
	}
	if err := obj.Space().Validate(best); err != nil {
		t.Fatal(err)
	}
}

func TestTuneStopsImmediately(t *testing.T) {
	obj := objective(t, stencil.J3D7PT())
	a := New()
	eng := engine.New(obj)
	// With stop always true, nothing gets measured: Tune must return
	// without hanging, and the engine must hold no best.
	if err := a.Tune(context.Background(), eng, nil, 1, func() bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := eng.Best(); ok || eng.Stats() != (engine.Stats{}) {
		t.Fatalf("stopped before any measurement, yet the engine measured: %+v", eng.Stats())
	}
}
