package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// flakyObjective wraps a simulator and fails every k-th measurement with a
// transient error, simulating compile failures / crashed kernels on a real
// testbed. The tuner must degrade gracefully, never crash, and still return
// the best of the measurements that succeeded.
type flakyObjective struct {
	inner *sim.Simulator
	every int
	mu    sync.Mutex
	n     int
}

func (f *flakyObjective) Space() *space.Space { return f.inner.Space() }

func (f *flakyObjective) Measure(s space.Setting) (float64, error) {
	f.mu.Lock()
	f.n++
	fail := f.every > 0 && f.n%f.every == 0
	f.mu.Unlock()
	if fail {
		return 0, errors.New("flaky: injected measurement failure")
	}
	return f.inner.Measure(s)
}

func TestTuneSurvivesFlakyMeasurements(t *testing.T) {
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(61), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{2, 3, 5} {
		obj := &flakyObjective{inner: s, every: every}
		cfg := DefaultConfig()
		cfg.DatasetSize = 64
		cfg.Sampling.PoolSize = 256
		cfg.GA.MaxGenerations = 6
		cfg.EmitKernels = false
		rep, err := Tune(obj, ds, cfg, nil)
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if rep.Best == nil || rep.BestMS <= 0 {
			t.Fatalf("every=%d: no result despite partial failures", every)
		}
		// The reported best must re-measure to the same value on the
		// reliable simulator (i.e. it was a real, successful measurement).
		ms, err := s.Measure(rep.Best)
		if err != nil || ms != rep.BestMS {
			t.Fatalf("every=%d: best not reproducible: %v %v", every, ms, err)
		}
	}
}

func TestTuneAllMeasurementsFail(t *testing.T) {
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(62), 32)
	if err != nil {
		t.Fatal(err)
	}
	obj := &flakyObjective{inner: s, every: 1} // everything fails
	cfg := DefaultConfig()
	cfg.DatasetSize = 32
	cfg.Sampling.PoolSize = 128
	cfg.GA.MaxGenerations = 4
	cfg.EmitKernels = false
	rep, err := Tune(obj, ds, cfg, nil)
	// With zero successful online measurements the pipeline still knows the
	// offline dataset's best; that is the correct fallback answer.
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Best.Equal(ds.Best().Setting) || rep.BestMS != ds.Best().TimeMS {
		t.Fatalf("expected dataset-best fallback, got %v %.4f", rep.Best, rep.BestMS)
	}
	if rep.Evaluations != 0 {
		t.Fatalf("no successful evaluations expected, got %d", rep.Evaluations)
	}
}

func TestTuneRejectsMismatchedDataset(t *testing.T) {
	// A dataset collected for the 19-parameter stencil space must be
	// rejected by a tuner operating on a different-width custom space.
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(71), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the settings to simulate a foreign space's dataset.
	for i := range ds.Samples {
		ds.Samples[i].Setting = ds.Samples[i].Setting[:5]
	}
	if _, err := Tune(s, ds, DefaultConfig(), nil); err == nil {
		t.Fatal("mismatched dataset width should be rejected")
	}
}
