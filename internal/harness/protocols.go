package harness

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// Fixture bundles everything one stencil's experiments need.
type Fixture struct {
	Stencil *stencil.Stencil
	Space   *space.Space
	Sim     *sim.Simulator
	// DS is the shared offline stencil dataset (csTuner and Garvey read
	// it; metric collection is offline per paper Sec. V-F).
	DS *dataset.Dataset
}

// NewFixture builds the simulator and collects the offline dataset
// (dsSize samples; paper uses 128).
func NewFixture(st *stencil.Stencil, arch *gpu.Arch, dsSize int, seed int64) (*Fixture, error) {
	sp, err := space.New(st)
	if err != nil {
		return nil, err
	}
	s := sim.New(sp, arch)
	// Collected on the simulator itself, so nothing from collection leaks
	// into the metered tuning runs built on this fixture.
	ds, err := dataset.Collect(s, stats.NewRand(seed), dsSize)
	if err != nil {
		return nil, err
	}
	return &Fixture{Stencil: st, Space: sp, Sim: s, DS: ds}, nil
}

// ErrMeasuredNothing is the verdict on a tuning run whose engine holds no
// measured setting and whose tuner and context report no other cause.
var ErrMeasuredNothing = errors.New("measured nothing")

// measuredNothing explains a run whose engine holds no best: the tuner's
// error, else the run context's, else ErrMeasuredNothing.
func measuredNothing(ctx context.Context, tuneErr error) error {
	if tuneErr != nil {
		return tuneErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ErrMeasuredNothing
}

// IsoIterationCurve runs one tuner once and returns best-so-far kernel time
// after each "iteration", where an iteration evaluates popSize settings
// (paper Sec. V-A2 equalizes all methods at the GA's population size).
// Missing points (method finished early, paper's "missing points mean the
// settings were evaluated completely") are NaN. A run whose engine measured
// nothing fails.
func IsoIterationCurve(ctx context.Context, t baselines.Tuner, fx *Fixture, iterations, popSize int, seed int64) ([]float64, error) {
	meter := engine.New(fx.Sim)
	evalCap := iterations * popSize
	stop := func() bool { return meter.Stats().Evaluations >= evalCap }
	err := t.Tune(ctx, meter, fx.DS, seed, stop)
	if _, _, ok := meter.Best(); !ok {
		err = measuredNothing(ctx, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name(), err)
	}
	curve := make([]float64, iterations)
	for it := 1; it <= iterations; it++ {
		if best, ok := meter.BestAtEvals(it * popSize); ok {
			curve[it-1] = best
		} else if it > 1 && !math.IsNaN(curve[it-2]) {
			curve[it-1] = curve[it-2]
		} else {
			curve[it-1] = math.NaN()
		}
	}
	return curve, nil
}

// IsoTimeResult is one tuner's outcome under a fixed virtual-time budget.
type IsoTimeResult struct {
	BestMS float64
	Evals  int
	Curve  []float64 // best-so-far at each grid point of the time axis
	Grid   []float64 // the time axis (seconds)
}

// IsoTimeRun races one tuner against a virtual budget of budgetS seconds and
// samples its best-so-far trajectory on gridN uniform time points.
func IsoTimeRun(ctx context.Context, t baselines.Tuner, fx *Fixture, budgetS float64, gridN int, seed int64) (*IsoTimeResult, error) {
	meter := engine.New(fx.Sim, engine.WithBudget(budgetS))
	err := t.Tune(ctx, meter, fx.DS, seed, meter.Exhausted)
	// Budget-stop is the expected way for a run to end; only a run that
	// measured nothing is fatal.
	_, bestMS, ok := meter.Best()
	if !ok {
		return nil, fmt.Errorf("%s: %w", t.Name(), measuredNothing(ctx, err))
	}
	res := &IsoTimeResult{Evals: meter.Stats().Evaluations, BestMS: bestMS}
	if gridN > 0 {
		res.Grid = make([]float64, gridN)
		res.Curve = make([]float64, gridN)
		for i := 0; i < gridN; i++ {
			s := budgetS * float64(i+1) / float64(gridN)
			res.Grid[i] = s
			if v, ok := meter.BestAtCost(s); ok {
				res.Curve[i] = v
			} else {
				res.Curve[i] = math.NaN()
			}
		}
	}
	return res, nil
}

// MeanOverSeeds averages f(seed) over `repeats` seeds element-wise,
// ignoring NaNs per element ("to isolate the effects of randomness, we run
// each method 10 times and present the average results").
func MeanOverSeeds(repeats int, baseSeed int64, f func(seed int64) ([]float64, error)) ([]float64, error) {
	var sum []float64
	var count []int
	for r := 0; r < repeats; r++ {
		curve, err := f(baseSeed + int64(r)*1000003)
		if err != nil {
			return nil, err
		}
		if sum == nil {
			sum = make([]float64, len(curve))
			count = make([]int, len(curve))
		}
		for i, v := range curve {
			if !math.IsNaN(v) {
				sum[i] += v
				count[i]++
			}
		}
	}
	out := make([]float64, len(sum))
	for i := range sum {
		if count[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum[i] / float64(count[i])
		}
	}
	return out, nil
}
