package opentuner

import (
	"math"
	"sort"

	"repro/internal/space"
	"repro/internal/stats"
)

// ---- shared helpers --------------------------------------------------------

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

// ---- global genetic algorithm ----------------------------------------------

type globalGA struct {
	sp   *space.Space
	rng  *stats.Rand
	pop  []scored
	t    *Tuner
	best float64
	init bool
}

func newGlobalGA(sp *space.Space, rng *stats.Rand, t *Tuner) *globalGA {
	g := &globalGA{sp: sp, rng: rng, t: t, best: math.Inf(1)}
	for i := 0; i < t.PopSize; i++ {
		g.pop = append(g.pop, scored{set: sp.Random(rng), ms: math.NaN()})
	}
	return g
}

func (g *globalGA) step(measure func(space.Setting) float64) bool {
	if !g.init {
		for i := range g.pop {
			g.pop[i].ms = measure(g.pop[i].set)
		}
		g.init = true
	}
	// Tournament selection + uniform crossover + per-parameter mutation.
	next := make([]scored, len(g.pop))
	for i := range next {
		if g.rng.Float64() > g.t.CrossoverRate {
			next[i] = g.pop[i]
			continue
		}
		p1 := g.tournament()
		p2 := g.tournament()
		child := uniformCross(g.sp, p1.set, p2.set, g.rng)
		child = mutate(g.sp, child, math.Max(g.t.MutationRate, 1.0/float64(space.NumParams)), g.rng)
		next[i] = scored{set: child, ms: measure(child)}
	}
	// Elitism.
	sort.Slice(g.pop, func(a, b int) bool { return less(g.pop[a].ms, g.pop[b].ms) })
	next[0] = g.pop[0]
	g.pop = next

	improved := false
	for i := range g.pop {
		if g.pop[i].ms < g.best {
			g.best = g.pop[i].ms
			improved = true
		}
	}
	return improved
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

// ---- differential evolution --------------------------------------------------

type de struct {
	sp   *space.Space
	rng  *stats.Rand
	pop  []scored
	best float64
	init bool
}

func newDE(sp *space.Space, rng *stats.Rand, t *Tuner) *de {
	d := &de{sp: sp, rng: rng, best: math.Inf(1)}
	for i := 0; i < t.PopSize; i++ {
		d.pop = append(d.pop, scored{set: sp.Random(rng), ms: math.NaN()})
	}
	return d
}

func (d *de) step(measure func(space.Setting) float64) bool {
	if !d.init {
		for i := range d.pop {
			d.pop[i].ms = measure(d.pop[i].set)
		}
		d.init = true
	}
	improved := false
	for i := range d.pop {
		// DE/rand/1 adapted to categorical value indices: for each
		// parameter, child takes a ± the index difference of two others.
		a := d.pop[d.rng.Intn(len(d.pop))]
		b := d.pop[d.rng.Intn(len(d.pop))]
		c := d.pop[d.rng.Intn(len(d.pop))]
		child := d.pop[i].set.Clone()
		for p := range child {
			if d.rng.Float64() > 0.5 {
				continue
			}
			vals := d.sp.Params[p].Values
			ia := d.sp.Params[p].Index(a.set[p])
			ib := d.sp.Params[p].Index(b.set[p])
			ic := d.sp.Params[p].Index(c.set[p])
			ni := ia + (ib - ic)
			if ni < 0 {
				ni = 0
			}
			if ni >= len(vals) {
				ni = len(vals) - 1
			}
			child[p] = vals[ni]
		}
		d.sp.Repair(child, d.rng)
		ms := measure(child)
		if less(ms, d.pop[i].ms) {
			d.pop[i] = scored{set: child, ms: ms}
		}
		if ms < d.best {
			d.best = ms
			improved = true
		}
	}
	return improved
}

// ---- greedy hill climber ------------------------------------------------------

type hill struct {
	sp   *space.Space
	rng  *stats.Rand
	cur  scored
	best float64
	init bool
}

func newHill(sp *space.Space, rng *stats.Rand) *hill {
	return &hill{sp: sp, rng: rng, best: math.Inf(1)}
}

func (h *hill) step(measure func(space.Setting) float64) bool {
	if !h.init {
		h.cur = scored{set: h.sp.Random(h.rng)}
		h.cur.ms = measure(h.cur.set)
		h.best = h.cur.ms
		h.init = true
	}
	improved := false
	// Try a handful of single-parameter neighbour moves.
	for trial := 0; trial < 8; trial++ {
		p := h.rng.Intn(space.NumParams)
		vals := h.sp.Params[p].Values
		idx := h.sp.Params[p].Index(h.cur.set[p])
		delta := 1
		if h.rng.Intn(2) == 0 {
			delta = -1
		}
		ni := idx + delta
		if ni < 0 || ni >= len(vals) {
			continue
		}
		cand := h.cur.set.Clone()
		cand[p] = vals[ni]
		h.sp.Repair(cand, h.rng)
		ms := measure(cand)
		if less(ms, h.cur.ms) {
			h.cur = scored{set: cand, ms: ms}
			if ms < h.best {
				h.best = ms
				improved = true
			}
		}
	}
	// Random restart when stuck at an invalid point.
	if math.IsInf(h.cur.ms, 1) || math.IsNaN(h.cur.ms) {
		h.cur = scored{set: h.sp.Random(h.rng)}
		h.cur.ms = measure(h.cur.set)
	}
	return improved
}
