// Package opentuner re-implements the OpenTuner comparator (Ansel et al.,
// PACT'14) at the fidelity the paper uses it: a global genetic algorithm
// over the *raw* parameter space, the one OpenTuner technique the paper pins
// for its comparison, with csTuner's population and crossover rate.
//
// Its mutation rate is not csTuner's 0.005. Each child redraws each
// parameter with probability max(0.005, 1/space.NumParams) = 1/19 ≈ 0.053,
// so about one parameter per child, roughly ten times csTuner's rate. The
// floor stays: dropping it would change every OpenTuner result, the
// iso-time figures (Figs. 8–10) and both daemon benchmark digests, which is
// a change of its own to make and measure.
//
// Being general-purpose, it has no notion of parameter grouping, GPU metrics
// or sampled sub-spaces: the GA manipulates full settings, which is exactly
// the disadvantage the paper's evaluation exposes.
package opentuner

import (
	"context"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/space"
	"repro/internal/stats"
)

// The paper's configuration: a population matched to csTuner's GA (2×16=32
// global individuals) with its crossover and mutation rates; step floors
// the mutation rate at one parameter per setting on average. maxRounds caps
// the generations; the harness usually stops the search by budget instead.
const (
	popSize       = 32
	maxRounds     = 400
	crossoverRate = 0.8
	mutationRate  = 0.005
)

// Tuner is the OpenTuner comparator.
type Tuner struct{}

// New returns the paper's configuration.
func New() *Tuner { return &Tuner{} }

// Name implements baselines.Tuner.
func (t *Tuner) Name() string { return "opentuner" }

// Tune implements baselines.Tuner.
func (t *Tuner) Tune(ctx context.Context, eng *engine.Engine, _ *dataset.Dataset, seed int64, stop func() bool) error {
	stop = engine.Stop(ctx, stop)
	measure := eng.Probe(ctx, stop) // memoized: re-probing a known setting is free
	g := newGlobalGA(eng.Space(), stats.NewRand(seed))
	for round := 0; round < maxRounds && !stop(); round++ {
		g.step(measure)
	}
	return nil
}

type scored struct {
	set space.Setting
	ms  float64
}

// mutate redraws each parameter with probability rate, then repairs.
func mutate(sp *space.Space, s space.Setting, rate float64, rng *stats.Rand) space.Setting {
	out := s.Clone()
	for i := range out {
		if rng.Float64() < rate {
			vals := sp.Params[i].Values
			out[i] = vals[rng.Intn(len(vals))]
		}
	}
	sp.Repair(out, rng)
	return out
}

// uniformCross mixes two settings parameter-wise, then repairs.
func uniformCross(sp *space.Space, a, b space.Setting, rng *stats.Rand) space.Setting {
	child := a.Clone()
	for i := range child {
		if rng.Intn(2) == 1 {
			child[i] = b[i]
		}
	}
	sp.Repair(child, rng)
	return child
}

// globalGA is the genetic algorithm over whole settings.
type globalGA struct {
	sp   *space.Space
	rng  *stats.Rand
	pop  []scored
	init bool
}

func newGlobalGA(sp *space.Space, rng *stats.Rand) *globalGA {
	g := &globalGA{sp: sp, rng: rng}
	for i := 0; i < popSize; i++ {
		g.pop = append(g.pop, scored{set: sp.Random(rng), ms: math.NaN()})
	}
	return g
}

// step measures the initial population on its first call, then breeds and
// measures one generation.
func (g *globalGA) step(measure func(space.Setting) float64) {
	if !g.init {
		for i := range g.pop {
			g.pop[i].ms = measure(g.pop[i].set)
		}
		g.init = true
	}
	// Tournament selection + uniform crossover + per-parameter mutation.
	next := make([]scored, len(g.pop))
	for i := range next {
		if g.rng.Float64() > crossoverRate {
			next[i] = g.pop[i]
			continue
		}
		p1 := g.tournament()
		p2 := g.tournament()
		child := uniformCross(g.sp, p1.set, p2.set, g.rng)
		child = mutate(g.sp, child, math.Max(mutationRate, 1.0/float64(space.NumParams)), g.rng)
		next[i] = scored{set: child, ms: measure(child)}
	}
	// Elitism.
	sort.Slice(g.pop, func(a, b int) bool { return less(g.pop[a].ms, g.pop[b].ms) })
	next[0] = g.pop[0]
	g.pop = next
}

func (g *globalGA) tournament() scored {
	a := g.pop[g.rng.Intn(len(g.pop))]
	b := g.pop[g.rng.Intn(len(g.pop))]
	if less(a.ms, b.ms) {
		return a
	}
	return b
}

func less(a, b float64) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	return a < b
}
