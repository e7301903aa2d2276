package baselines_test

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/baselines"
	"repro/internal/baselines/artemis"
	"repro/internal/baselines/cstuner"
	"repro/internal/baselines/garvey"
	"repro/internal/baselines/opentuner"
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
	ds, err := dataset.Collect(s, stats.NewRand(101), 64)
	if err != nil {
		t.Fatal(err)
	}
	return s, ds
}

func allTuners() []baselines.Tuner {
	cs := cstuner.New()
	cs.Cfg.DatasetSize = 64
	cs.Cfg.Sampling.PoolSize = 512
	cs.Cfg.GA.MaxGenerations = 10
	cs.Cfg.EmitKernels = false
	return []baselines.Tuner{cs, opentuner.New(), garvey.New(), artemis.New()}
}

// tune runs tn on a fresh engine over s and returns the engine, whose best
// is the run's outcome.
func tune(t *testing.T, tn baselines.Tuner, s *sim.Simulator, ds *dataset.Dataset, seed int64, stop func() bool) *engine.Engine {
	t.Helper()
	eng := engine.New(s)
	if err := tn.Tune(context.Background(), eng, ds, seed, stop); err != nil {
		t.Fatalf("%s: %v", tn.Name(), err)
	}
	return eng
}

// TestAllTunersBeatRandom: every method must find something clearly better
// than the median random setting — the minimum bar for calling it a tuner.
func TestAllTunersBeatRandom(t *testing.T) {
	s, ds := fixture(t)
	// Median of the dataset as the random reference.
	times := ds.Times()
	slices.Sort(times)
	median := times[len(times)/2]

	for _, tn := range allTuners() {
		best, ms, ok := tune(t, tn, s, ds, 7, nil).Best()
		if !ok || ms <= 0 {
			t.Fatalf("%s: degenerate result", tn.Name())
		}
		if err := s.Space().Validate(best); err != nil {
			t.Fatalf("%s: invalid best setting: %v", tn.Name(), err)
		}
		got, err := s.Measure(best)
		if err != nil || got != ms {
			t.Fatalf("%s: reported %.4f but re-measured %.4f (%v)", tn.Name(), ms, got, err)
		}
		if ms > median*0.8 {
			t.Fatalf("%s: best %.3f ms not clearly better than random median %.3f ms",
				tn.Name(), ms, median)
		}
	}
}

func TestTunersHonourStop(t *testing.T) {
	s, ds := fixture(t)
	for _, tn := range allTuners() {
		var polls int64
		stop := func() bool { return atomic.AddInt64(&polls, 1) > 25 }
		// Stopping early may leave the engine with nothing measured; that
		// is the caller's verdict, not a tuner error. The search must not
		// run unbounded.
		tune(t, tn, s, ds, 3, stop)
		if polls > 2000 {
			t.Fatalf("%s: %d stop polls — budget ignored", tn.Name(), polls)
		}
	}
}

// TestTunersDeterministic compares two same-seed runs' whole tally: the
// engine's best, counters and trajectory.
func TestTunersDeterministic(t *testing.T) {
	s, ds := fixture(t)
	for _, tn := range allTuners() {
		e1, e2 := tune(t, tn, s, ds, 42, nil), tune(t, tn, s, ds, 42, nil)
		b1, ms1, _ := e1.Best()
		b2, ms2, _ := e2.Best()
		if !b1.Equal(b2) || ms1 != ms2 {
			t.Fatalf("%s: same seed diverged (%.4f vs %.4f)", tn.Name(), ms1, ms2)
		}
		if st1, st2 := e1.Stats(), e2.Stats(); st1 != st2 {
			t.Fatalf("%s: same seed, different stats:\n%+v\n%+v", tn.Name(), st1, st2)
		}
		if !reflect.DeepEqual(e1.Trajectory(), e2.Trajectory()) {
			t.Fatalf("%s: same seed, different trajectory", tn.Name())
		}
	}
}

func TestGarveyRequiresDataset(t *testing.T) {
	s, _ := fixture(t)
	if err := garvey.New().Tune(context.Background(), engine.New(s), nil, 1, nil); err == nil {
		t.Fatal("garvey without dataset should error")
	}
}
