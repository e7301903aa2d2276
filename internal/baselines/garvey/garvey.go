// Package garvey re-implements the Garvey & Abdelrahman comparator (ICPP'15)
// as the paper describes and configures it (Sec. V-A2): a random forest
// predicts the optimal memory-type configuration from measured experience,
// the remaining parameters are grouped *by dimension* using expert
// knowledge, and each group is searched exhaustively over a random sample of
// its settings (the paper sets the sampling ratio to 10%).
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
		combos := enumerate(sp, group)
		sampled := sample(combos, samplingRatio, rng)
		bestMS := math.Inf(1)
		var bestCombo []int
		for _, combo := range sampled {
			cand := current.Clone()
			for i, p := range group {
				cand[p] = combo[i]
			}
			sp.Repair(cand, rng)
			if sp.Validate(cand) != nil {
				continue
			}
			if ms := measure(cand); ms < bestMS {
				bestMS = ms
				bestCombo = combo
			}
		}
		if bestCombo != nil {
			for i, p := range group {
				current[p] = bestCombo[i]
			}
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

// enumerate lists the cartesian product of the group's raw value ranges.
func enumerate(sp *space.Space, group []int) [][]int {
	combos := [][]int{{}}
	for _, p := range group {
		vals := sp.Params[p].Values
		next := make([][]int, 0, len(combos)*len(vals))
		for _, c := range combos {
			for _, v := range vals {
				nc := append(append([]int{}, c...), v)
				next = append(next, nc)
			}
		}
		combos = next
	}
	return combos
}

// sample keeps a uniformly random ratio fraction (at least one combo).
func sample(combos [][]int, ratio float64, rng *stats.Rand) [][]int {
	if ratio >= 1 {
		return combos
	}
	n := int(math.Ceil(ratio * float64(len(combos))))
	if n < 1 {
		n = 1
	}
	idx := rng.Perm(len(combos))[:n]
	out := make([][]int, n)
	for i, j := range idx {
		out[i] = combos[j]
	}
	return out
}
