// Package opentuner re-implements the OpenTuner comparator (Ansel et al.,
// PACT'14) at the fidelity the paper uses it: an ensemble of search
// techniques over the *raw* parameter space — a global genetic algorithm
// (the technique the paper pins for its comparison), differential evolution,
// and a greedy hill climber — coordinated by an AUC-bandit meta-technique
// that shifts the evaluation budget towards whichever technique has recently
// produced improvements.
//
// Being general-purpose, it has no notion of parameter grouping, GPU metrics
// or sampled sub-spaces: every technique manipulates full settings, which is
// exactly the disadvantage the paper's evaluation exposes.
package opentuner

import (
	"context"
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/space"
	"repro/internal/stats"
)

// Technique names.
const (
	TechGA   = "ga"
	TechDE   = "de"
	TechHill = "hill"
)

// Tuner is the OpenTuner comparator.
type Tuner struct {
	// PopSize is the population per technique (paper: matched to csTuner's
	// GA, 2×16=32 global individuals).
	PopSize int
	// MaxRounds caps the number of bandit rounds; the harness usually
	// stops the search by budget instead.
	MaxRounds int
	// Techniques to enable; empty means GA only (the paper's setup).
	Techniques []string
	// CrossoverRate / MutationRate mirror csTuner's GA options.
	CrossoverRate float64
	MutationRate  float64
}

// New returns the paper's configuration: global GA with options matching
// csTuner's genetic algorithm.
func New() *Tuner {
	return &Tuner{
		PopSize:       32,
		MaxRounds:     400,
		Techniques:    []string{TechGA},
		CrossoverRate: 0.8,
		MutationRate:  0.005,
	}
}

// NewEnsemble returns the full multi-technique configuration.
func NewEnsemble() *Tuner {
	t := New()
	t.Techniques = []string{TechGA, TechDE, TechHill}
	return t
}

// Name implements baselines.Tuner.
func (t *Tuner) Name() string { return "opentuner" }

// Tune implements baselines.Tuner.
func (t *Tuner) Tune(ctx context.Context, eng *engine.Engine, _ *dataset.Dataset, seed int64, stop func() bool) error {
	stop = engine.Stop(ctx, stop)
	measure := eng.Probe(ctx, stop) // memoized: re-probing a known setting is free
	sp := eng.Space()
	rng := stats.NewRand(seed)

	techs := t.Techniques
	if len(techs) == 0 {
		techs = []string{TechGA}
	}
	states := make([]searcher, 0, len(techs))
	for _, name := range techs {
		switch name {
		case TechGA:
			states = append(states, newGlobalGA(sp, rng, t))
		case TechDE:
			states = append(states, newDE(sp, rng, t))
		case TechHill:
			states = append(states, newHill(sp, rng))
		default:
			return errors.New("opentuner: unknown technique " + name)
		}
	}

	// AUC bandit: exponentially-decayed credit per technique; each round
	// picks the technique with the best upper-confidence score.
	credit := make([]float64, len(states))
	uses := make([]float64, len(states))
	for round := 0; round < t.MaxRounds && !stop(); round++ {
		pick := 0
		if len(states) > 1 {
			bestScore := math.Inf(-1)
			for i := range states {
				score := credit[i] + math.Sqrt(2*math.Log(float64(round+2))/(uses[i]+1))
				if score > bestScore {
					bestScore, pick = score, i
				}
			}
		}
		improved := states[pick].step(measure)
		uses[pick]++
		for i := range credit {
			credit[i] *= 0.9
		}
		if improved {
			credit[pick] += 1
		}
	}
	return nil
}

// searcher is one technique; step runs one generation/round of evaluations
// and reports whether the technique improved its own best.
type searcher interface {
	step(measure func(space.Setting) float64) bool
}
