package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// checkHook is a run context that calls at when TuneCtx checks it for the
// n-th time. Only the tuning goroutine checks the run context: once before
// the pool draw starts, then at each stage boundary, so n = 2 is the check
// right after grouping.
type checkHook struct {
	context.Context
	n      int32
	at     func()
	checks atomic.Int32
}

func (c *checkHook) Err() error {
	if c.checks.Add(1) == c.n {
		c.at()
	}
	return c.Context.Err()
}

// outlast is how long the held-up pool draw keeps running after the
// tuning goroutine passed the point under test, so a run that returned
// without joining the draw would return before it ends.
const outlast = 20 * time.Millisecond

// drawValues are the values of each of stalledDrawSpace's four parameters.
var drawValues = []int{1, 2, 4, 8, 16, 32, 64, 128}

// stalledDrawSpace is a custom space whose repair, which the pool draw
// calls, holds up the draw's first setting until release is closed and
// then for outlast more, and then sets held.
func stalledDrawSpace(t *testing.T, release <-chan struct{}, held *atomic.Bool) *space.Space {
	t.Helper()
	var stalled atomic.Bool
	params := make([]space.Param, 4)
	for p := range params {
		params[p] = space.Param{Name: fmt.Sprint("p", p), Values: drawValues}
	}
	sp, err := space.NewCustom(params, nil, func(space.Setting, *stats.Rand) {
		if stalled.CompareAndSwap(false, true) {
			<-release
			time.Sleep(outlast)
			held.Store(true)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// sumObjective times a setting by the sum of its values.
type sumObjective struct{ sp *space.Space }

func (o sumObjective) Space() *space.Space { return o.sp }

func (o sumObjective) Measure(s space.Setting) (float64, error) {
	total := 0
	for _, v := range s {
		total += v
	}
	return float64(total), nil
}

// handDataset is 16 random settings of stalledDrawSpace, drawn without its
// repair, timed by sumObjective, with two metrics each; with gap set,
// every other sample lacks metric "y".
func handDataset(gap bool) *dataset.Dataset {
	rng := stats.NewRand(3)
	ds := &dataset.Dataset{}
	for i := range 16 {
		s := make(space.Setting, 4)
		total := 0
		for p := range s {
			s[p] = drawValues[rng.Intn(len(drawValues))]
			total += s[p]
		}
		m := map[string]float64{"x": float64(2 * total), "y": float64(i % 5)}
		if gap && i%2 == 1 {
			delete(m, "y")
		}
		ds.Samples = append(ds.Samples, dataset.Sample{Setting: s, TimeMS: float64(total), Metrics: m})
	}
	return ds
}

func spanNames(rep *Report) string {
	var names []string
	for _, s := range rep.Spans {
		names = append(names, s.Name)
	}
	return strings.Join(names, " ")
}

// TestTuneCtxJoinsStageGoroutines ends TuneCtx while each of its stage
// goroutines runs: cancelled after grouping while the pool draw is held
// up, failed in the metric stage while the draw is held up, and cancelled
// at the search's first measurement while codegen runs. Each run must
// return the error and the partial report of a serial run: the draw must
// have ended, and the report must count every kernel codegen emits. No
// goroutine may outlive the call.
func TestTuneCtxJoinsStageGoroutines(t *testing.T) {
	// joined waits until the goroutine count is back at before. A joined
	// goroutine has signalled its WaitGroup but may not have exited yet, so
	// the count may take a moment to fall.
	joined := func(t *testing.T, before int) {
		t.Helper()
		for ms := 0; runtime.NumGoroutine() > before; ms++ {
			if ms == 2000 {
				t.Fatalf("%d goroutines before TuneCtx, %d two seconds after: a stage goroutine outlived the call", before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("cancelled during grouping, pool drawing", func(t *testing.T) {
		release := make(chan struct{})
		var held atomic.Bool
		sp := stalledDrawSpace(t, release, &held)
		ds := handDataset(false)
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &checkHook{Context: parent, n: 2, at: func() { cancel(); close(release) }}
		cfg := quickConfig()
		before := runtime.NumGoroutine()
		rep, err := TuneCtx(ctx, sumObjective{sp}, ds, cfg, nil)
		if !held.Load() {
			t.Fatal("TuneCtx returned while the pool draw was held up")
		}
		joined(t, before)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rep == nil {
			t.Fatal("a run cancelled after grouping must return its partial report")
		}
		want := grouping.Groups(grouping.PairCVs(ds, sp), cfg.MaxGroupSize)
		if !slices.EqualFunc(rep.Groups, want, slices.Equal[[]int]) {
			t.Fatalf("groups %v, want %v", rep.Groups, want)
		}
		if rep.SelectedMetrics != nil || len(rep.Models) != 0 || rep.SampledSize != 0 || rep.GeneratedCUDA != 0 {
			t.Fatalf("stages after grouping left artefacts: %+v", rep)
		}
		if b := ds.Best(); !rep.Best.Equal(b.Setting) || rep.BestMS != b.TimeMS {
			t.Fatalf("best %v %.1f, want the dataset's %v %.1f", rep.Best, rep.BestMS, b.Setting, b.TimeMS)
		}
		if got := spanNames(rep); got != "grouping canceled" {
			t.Fatalf("spans %q, want %q", got, "grouping canceled")
		}
	})

	t.Run("metric stage error, pool drawing", func(t *testing.T) {
		release := make(chan struct{})
		var held atomic.Bool
		sp := stalledDrawSpace(t, release, &held)
		ctx := &checkHook{Context: context.Background(), n: 2, at: func() { close(release) }}
		before := runtime.NumGoroutine()
		rep, err := TuneCtx(ctx, sumObjective{sp}, handDataset(true), quickConfig(), nil)
		if !held.Load() {
			t.Fatal("TuneCtx returned while the pool draw was held up")
		}
		joined(t, before)
		if rep != nil || err == nil || !strings.HasPrefix(err.Error(), "core: metric PCCs: ") {
			t.Fatalf("got %v, %v; want no report and the metric stage's error", rep, err)
		}
	})

	t.Run("cancelled mid-search, codegen running", func(t *testing.T) {
		sp, err := space.New(stencil.J3D7PT())
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New(sp, gpu.A100())
		ds, err := dataset.Collect(s, stats.NewRand(11), 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig()
		cfg.Sampling.PoolSize = 4096
		full, err := Tune(s, ds, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The first measurement is the search's first anchor: the dataset
		// was given, so nothing measures before the search.
		obj := &countingObjective{inner: s, after: 1, cancel: cancel}
		before := runtime.NumGoroutine()
		rep, err := TuneCtx(ctx, obj, ds, cfg, nil)
		joined(t, before)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rep == nil {
			t.Fatal("a run cancelled mid-search must return its partial report")
		}
		if rep.GeneratedCUDA == 0 || rep.GeneratedCUDA != full.GeneratedCUDA || rep.SampledSize != full.SampledSize {
			t.Fatalf("emitted %d of %d sampled, the full run %d of %d", rep.GeneratedCUDA, rep.SampledSize, full.GeneratedCUDA, full.SampledSize)
		}
		if rep.Overhead.Codegen <= 0 {
			t.Fatalf("codegen time %v", rep.Overhead.Codegen)
		}
		if got, want := spanNames(rep), "grouping sampling codegen search canceled"; got != want {
			t.Fatalf("spans %q, want %q", got, want)
		}
		if rep.Best == nil || sp.Validate(rep.Best) != nil {
			t.Fatalf("partial best %v", rep.Best)
		}
		if n := rep.Engine.Evaluations + rep.Engine.Invalid; n != 1 || atomic.LoadInt64(&obj.n) != 1 {
			t.Fatalf("measured %d settings, want the one that cancelled the run", n)
		}
	})
}
