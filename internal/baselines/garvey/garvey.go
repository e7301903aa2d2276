// Package garvey re-implements the Garvey & Abdelrahman comparator (ICPP'15)
// as the paper describes and configures it (Sec. V-A2): a random forest
// predicts the optimal memory-type configuration from measured experience,
// the remaining parameters are grouped *by dimension* using expert
// knowledge, and each group is searched exhaustively over a random sample of
// its settings (the paper sets the sampling ratio to 10%). The sample is drawn
// as indices into the group's product and decoded one by one, so the product
// itself is never built.
//
// Its two structural weaknesses — expert grouping that ignores measured
// correlation, and unguided random sampling that can drop the optimum — are
// what csTuner's evaluation contrasts against.
package garvey

import (
	"context"
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/space"
	"repro/internal/stats"
)

// samplingRatio is the fraction of each group's cartesian product that is
// evaluated (paper: 10%).
const samplingRatio = 0.10

// Tuner is the Garvey comparator.
type Tuner struct{}

// New returns the paper's configuration.
func New() *Tuner { return &Tuner{} }

// Name implements baselines.Tuner.
func (t *Tuner) Name() string { return "garvey" }

// dimension groups: expert "grouping by dimension" (paper Sec. V-A2).
func dimensionGroups() [][]int {
	return [][]int{
		{space.TBX, space.UFX, space.CMX, space.BMX},
		{space.TBY, space.UFY, space.CMY, space.BMY},
		{space.TBZ, space.UFZ, space.CMZ, space.BMZ},
		{space.UseStreaming, space.SD, space.SB, space.UseRetiming, space.UsePrefetching},
	}
}

// Tune implements baselines.Tuner.
func (t *Tuner) Tune(ctx context.Context, eng *engine.Engine, ds *dataset.Dataset, seed int64, stop func() bool) error {
	if ds == nil || len(ds.Samples) == 0 {
		return errors.New("garvey: requires an offline experience dataset")
	}
	stop = engine.Stop(ctx, stop)
	measure := eng.Probe(ctx, stop) // memoized: re-probing a known setting is free
	sp := eng.Space()
	rng := stats.NewRand(seed)

	// ---- Memory-type prediction with a random forest --------------------
	useShared, useConstant, err := predictMemoryType(ds)
	if err != nil {
		return err
	}
	current := sp.Default()
	current[space.UseShared] = useShared
	current[space.UseConstant] = useConstant
	measure(current)

	// ---- Per-dimension exhaustive search with random sampling -----------
	for _, group := range dimensionGroups() {
		if stop() {
			break
		}
		bestMS := math.Inf(1)
		bestIdx := -1
		// One candidate per group, reset from current before each decode:
		// the engine clones the settings it keeps and keys everything else.
		cand := make(space.Setting, len(current))
		for _, k := range sampleIndices(groupSize(sp, group), rng) {
			copy(cand, current)
			decode(sp, group, k, cand)
			sp.Repair(cand, rng)
			if sp.Validate(cand) != nil {
				continue
			}
			if ms := measure(cand); ms < bestMS {
				bestMS = ms
				bestIdx = k
			}
		}
		if bestIdx >= 0 {
			decode(sp, group, bestIdx, current)
			sp.Repair(current, rng)
		}
	}
	return nil
}

// predictMemoryType trains a forest with the default options on the
// experience dataset (features: the full setting; target: time) and returns
// the memory-flag pair with the lowest predicted time averaged over the
// dataset's settings.
func predictMemoryType(ds *dataset.Dataset) (useShared, useConstant int, err error) {
	x := make([][]float64, len(ds.Samples))
	y := make([]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		row := make([]float64, len(s.Setting))
		for p, v := range s.Setting {
			row[p] = float64(v)
		}
		x[i] = row
		y[i] = s.TimeMS
	}
	f, err := forest.Train(x, y, forest.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	bestShared, bestConstant := space.Off, space.Off
	bestScore := math.Inf(1)
	var row []float64 // each dataset row in turn, its memory flags overwritten
	for _, sh := range []int{space.Off, space.On} {
		for _, co := range []int{space.Off, space.On} {
			score := 0.0
			for i := range x {
				row = append(row[:0], x[i]...)
				row[space.UseShared] = float64(sh)
				row[space.UseConstant] = float64(co)
				p, err := f.Predict(row)
				if err != nil {
					return 0, 0, err
				}
				score += p
			}
			if score < bestScore {
				bestScore, bestShared, bestConstant = score, sh, co
			}
		}
	}
	return bestShared, bestConstant, nil
}

// groupSize returns the size of the cartesian product of the group's raw
// value ranges.
func groupSize(sp *space.Space, group []int) int {
	n := 1
	for _, p := range group {
		n *= len(sp.Params[p].Values)
	}
	return n
}

// sampleIndices draws a uniformly random samplingRatio fraction of a product
// of n combinations, as indices into it: the first ⌈0.1·n⌉ entries of
// rng.Perm(n).
func sampleIndices(n int, rng *stats.Rand) []int {
	return rng.Perm(n)[:int(math.Ceil(samplingRatio*float64(n)))]
}

// decode writes the k-th combination of the group's product into s. The
// product is listed in mixed radix with the group's last parameter varying
// fastest, the order a nested loop over the group's parameters, first
// outermost, visits it.
func decode(sp *space.Space, group []int, k int, s space.Setting) {
	for j := len(group) - 1; j >= 0; j-- {
		vals := sp.Params[group[j]].Values
		s[group[j]] = vals[k%len(vals)]
		k /= len(vals)
	}
}
