// Package ga implements csTuner's customized multi-process genetic
// algorithm (paper Sec. IV-E, Fig. 6): sub-populations evolve in lockstep
// on the caller's goroutine, migrate their best individuals around a
// single-ring topology, breed by neighbourhood selection + uniform
// crossover + bit mutation over binary genes, and stop automatically when
// the coefficient of variation of the top-n fitness values drops below a
// threshold (the approximation rule of Sec. III-C). The paper runs each
// sub-population as an MPI process; the objective here answers in
// microseconds, so a loop that visits the islands in rank order keeps the
// ring migration and makes the probe sequence a pure function of the seed.
//
// The search domain is always a dense index range [0, Count) — the sampled
// search space re-indexes every parameter group's value tuples into such a
// range (Fig. 7) — so one Minimize call tunes one parameter group. When the
// range is no larger than the whole population the search degenerates to
// exhaustive evaluation, exactly as the paper prescribes.
package ga

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/stats"
)

// Options configures Minimize. The zero value is unusable; start from
// DefaultOptions, whose numbers follow the paper's evaluation setup
// (2 sub-populations × 16 individuals, crossover 0.8, mutation 0.005).
type Options struct {
	SubPopulations int
	PopSize        int     // individuals per sub-population
	CrossoverRate  float64 // probability a child is bred rather than cloned
	MutationRate   float64 // per-bit flip probability
	TopN           int     // approximation window over best fitness values
	CVThreshold    float64 // stop when CV(top-n fitness) < threshold
	MaxGenerations int     // hard cap (safety net, not the intended stop)
	Seed           int64
	// Seeds are candidate indices injected into the initial generation
	// (warm-starting from a prior campaign's bests): seed i overwrites the
	// i-th randomly-initialized individual, spread across sub-populations.
	// Out-of-range indices are ignored; an empty slice leaves the classic
	// random initialization byte-identical. Seeds are ignored on the
	// exhaustive path, which evaluates every index anyway.
	Seeds []int
}

// DefaultOptions returns the paper's GA configuration.
func DefaultOptions() Options {
	return Options{
		SubPopulations: 2,
		PopSize:        16,
		CrossoverRate:  0.8,
		MutationRate:   0.005,
		TopN:           8,
		CVThreshold:    0.05,
		MaxGenerations: 64,
		Seed:           1,
	}
}

// Result reports a finished search.
type Result struct {
	BestIndex   int
	BestValue   float64
	Evaluations int  // distinct indices evaluated
	Generations int  // GA generations run (0 for the exhaustive path)
	Exhaustive  bool // true when the range degenerated to full enumeration
}

// Minimize searches the index range [0, count) for the smallest value of
// eval, which runs on the caller's goroutine in an order fixed by the
// options; +Inf marks an invalid candidate. Results are memoized so
// Evaluations counts distinct probes.
func Minimize(count int, eval func(int) float64, opt Options) Result {
	if count <= 0 {
		return Result{BestIndex: -1, BestValue: math.Inf(1)}
	}
	memo := newMemo(eval)

	if count <= opt.SubPopulations*opt.PopSize || opt.SubPopulations < 1 || opt.PopSize < 2 {
		return exhaustive(count, memo)
	}

	gens := evolveIslands(count, memo, opt)
	idx, val := memo.best()
	return Result{
		BestIndex: idx, BestValue: val,
		Evaluations: memo.count(), Generations: gens,
	}
}

func exhaustive(count int, m *memo) Result {
	for i := 0; i < count; i++ {
		m.get(i)
	}
	idx, val := m.best()
	return Result{
		BestIndex: idx, BestValue: val,
		Evaluations: m.count(), Exhaustive: true,
	}
}

// individual is one genome: the candidate index stored as bits.
type individual struct {
	gene uint64
	fit  float64 // evaluated objective (lower is better)
}

// evolveIslands runs the island-model loop and returns generations used.
func evolveIslands(count int, m *memo, opt Options) int {
	geneBits := bits.Len64(uint64(count - 1))
	if geneBits == 0 {
		geneBits = 1
	}

	// pop is the current generation; breed writes the next one into spare
	// and the two swap.
	type popState struct {
		pop, spare []individual
		rng        *rand.Rand
	}
	states := make([]*popState, opt.SubPopulations)
	for r := range states {
		rng := rand.New(rand.NewSource(opt.Seed + int64(r)*7919))
		pop := make([]individual, opt.PopSize)
		for i := range pop {
			pop[i].gene = uint64(rng.Intn(count))
		}
		states[r] = &popState{pop: pop, spare: make([]individual, opt.PopSize), rng: rng}
	}

	// Warm-start injection: seed i replaces the (i/ranks)-th individual of
	// sub-population i%ranks, after the random draws above — so the RNG
	// stream (and therefore every later breeding decision) is byte-identical
	// whether or not seeds are present.
	for i, s := range opt.Seeds {
		if s < 0 || s >= count {
			continue
		}
		slot := i / len(states)
		if slot >= opt.PopSize {
			break
		}
		states[i%len(states)].pop[slot].gene = uint64(s)
	}

	n := len(states)
	bests := make([]individual, n)
	gen := 0
	for ; gen < opt.MaxGenerations; gen++ {
		for r, st := range states {
			for i := range st.pop {
				st.pop[i].fit = m.get(int(st.pop[i].gene) % count)
			}
			bests[r] = bestOf(st.pop)
		}
		for r, st := range states {
			// Migration: each island's best travels the ring both ways;
			// immigrants replace the two worst residents. A lone island
			// receives its own best twice.
			replaceWorst(st.pop, bests[(r-1+n)%n])
			replaceWorst(st.pop, bests[(r+1)%n])

			breed(st.spare, st.pop, st.rng, opt, geneBits, count, m)
			st.pop, st.spare = st.spare, st.pop
		}

		// Approximation stop: CV of the global top-n fitness values.
		top := m.topValues(opt.TopN)
		if len(top) >= opt.TopN {
			if cv, err := stats.CV(top); err == nil && cv < opt.CVThreshold {
				gen++
				break
			}
		}
	}
	return gen
}

func bestOf(pop []individual) individual {
	b := pop[0]
	for _, ind := range pop[1:] {
		if ind.fit < b.fit {
			b = ind
		}
	}
	return b
}

func replaceWorst(pop []individual, imm individual) {
	w := 0
	for i := range pop {
		if pop[i].fit > pop[w].fit {
			w = i
		}
	}
	if imm.fit < pop[w].fit {
		pop[w] = imm
	}
}

// breed writes the next generation of pop into next, which has pop's
// length, with cellular neighbourhood selection: the parents of slot i come
// from its four ring neighbours (i±1, i±2), chosen by rank-weighted roulette
// (higher fitness → higher chance), genes cross over uniformly bit-by-bit,
// then mutate.
func breed(next, pop []individual, rng *rand.Rand, opt Options, geneBits, count int, m *memo) {
	n := len(pop)
	for i := 0; i < n; i++ {
		if rng.Float64() > opt.CrossoverRate {
			next[i] = pop[i] // survives unchanged (minus mutation below)
		} else {
			p1 := selectNeighbour(pop, i, rng)
			p2 := selectNeighbour(pop, i, rng)
			var child uint64
			for b := 0; b < geneBits; b++ {
				src := p1
				if rng.Intn(2) == 1 {
					src = p2
				}
				child |= src.gene & (1 << b)
			}
			next[i] = individual{gene: child}
		}
		// Bit mutation keeps the search out of local optima (Sec. IV-E).
		for b := 0; b < geneBits; b++ {
			if rng.Float64() < opt.MutationRate {
				next[i].gene ^= 1 << b
			}
		}
		next[i].gene %= uint64(count)
		next[i].fit = m.get(int(next[i].gene))
	}
	// Elitism: keep the best individual alive.
	eb := bestOf(pop)
	replaceWorst(next, eb)
}

// selectNeighbour picks one of the four ring neighbours of slot i with
// probability proportional to fitness rank (best neighbour weight 4 … worst
// weight 1).
func selectNeighbour(pop []individual, i int, rng *rand.Rand) individual {
	n := len(pop)
	nbrs := [4]individual{
		pop[(i-2+n)%n], pop[(i-1+n)%n], pop[(i+1)%n], pop[(i+2)%n],
	}
	rankByFit(&nbrs)
	// Rank weights 4,3,2,1 over the sorted neighbours.
	r := rng.Intn(10)
	switch {
	case r < 4:
		return nbrs[0]
	case r < 7:
		return nbrs[1]
	case r < 9:
		return nbrs[2]
	default:
		return nbrs[3]
	}
}

// rankByFit orders the neighbours by ascending fit by insertion, the
// algorithm the sort package's Slice runs on twelve elements or fewer: with
// the same < test the order is the same, ties and ±Inf included.
func rankByFit(nbrs *[4]individual) {
	for i := 1; i < len(nbrs); i++ {
		for j := i; j > 0 && nbrs[j].fit < nbrs[j-1].fit; j-- {
			nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
		}
	}
}

// memo caches objective evaluations and tracks global order statistics.
type memo struct {
	eval func(int) float64
	vals map[int]float64
}

func newMemo(eval func(int) float64) *memo {
	return &memo{eval: eval, vals: make(map[int]float64)}
}

func (m *memo) get(i int) float64 {
	v, ok := m.vals[i]
	if !ok {
		v = m.eval(i)
		m.vals[i] = v
	}
	return v
}

func (m *memo) count() int { return len(m.vals) }

func (m *memo) best() (int, float64) {
	bi, bv := -1, math.Inf(1)
	for i, v := range m.vals {
		if v < bv || (v == bv && (bi < 0 || i < bi)) {
			bi, bv = i, v
		}
	}
	return bi, bv
}

// topValues returns the n smallest finite evaluations seen so far.
func (m *memo) topValues(n int) []float64 {
	vals := make([]float64, 0, len(m.vals))
	//cstlint:allow maporder(stats.TopN fully sorts vals, so collection order cannot reach the result)
	for _, v := range m.vals {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return stats.TopN(vals, n)
}
