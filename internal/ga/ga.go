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
// exhaustive evaluation, exactly as the paper prescribes. The memo of
// evaluations is an array over the range that keeps the best and the
// top-n window current as each evaluation arrives, so the stop rule reads
// them without a scan or a sort.
package ga

import (
	"math"
	"math/bits"

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
// Evaluations counts distinct probes; the memo is dense, so a call holds
// O(count) memory however few indices it probes.
func Minimize(count int, eval func(int) float64, opt Options) Result {
	if count <= 0 {
		return Result{BestIndex: -1, BestValue: math.Inf(1)}
	}
	memo := newMemo(count, opt.TopN, eval)

	if count <= opt.SubPopulations*opt.PopSize || opt.SubPopulations < 1 || opt.PopSize < 2 {
		return exhaustive(count, memo)
	}

	gens := evolveIslands(count, memo, opt)
	return Result{
		BestIndex: memo.bestIndex, BestValue: memo.bestValue,
		Evaluations: memo.count, Generations: gens,
	}
}

func exhaustive(count int, m *memo) Result {
	for i := 0; i < count; i++ {
		m.get(i)
	}
	return Result{
		BestIndex: m.bestIndex, BestValue: m.bestValue,
		Evaluations: m.count, Exhaustive: true,
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
		rng        *stats.Rand
	}
	states := make([]*popState, opt.SubPopulations)
	for r := range states {
		rng := stats.NewRand(opt.Seed + int64(r)*7919)
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
		if len(m.top) >= opt.TopN {
			if cv, err := stats.CV(m.top); err == nil && cv < opt.CVThreshold {
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
// then mutate. Both parents are drawn from one ranking of the slot's
// neighbours.
func breed(next, pop []individual, rng *stats.Rand, opt Options, geneBits, count int, m *memo) {
	n := len(pop)
	for i := 0; i < n; i++ {
		if rng.Float64() > opt.CrossoverRate {
			next[i] = pop[i] // survives unchanged (minus mutation below)
		} else {
			nbrs := [4]individual{
				pop[(i-2+n)%n], pop[(i-1+n)%n], pop[(i+1)%n], pop[(i+2)%n],
			}
			rankByFit(&nbrs)
			p1 := selectNeighbour(&nbrs, rng)
			p2 := selectNeighbour(&nbrs, rng)
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

// selectNeighbour picks one of four neighbours ranked by rankByFit with
// probability proportional to fitness rank (best neighbour weight 4 … worst
// weight 1).
func selectNeighbour(nbrs *[4]individual, rng *stats.Rand) individual {
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

// memo caches objective evaluations by index and keeps, as each new one
// arrives, the order statistics the search reads, so no generation scans
// or sorts the evaluations seen so far.
type memo struct {
	eval func(int) float64
	vals []float64 // vals[i] is eval(i) once done[i]
	done []bool

	count     int       // distinct indices evaluated
	bestIndex int       // smallest index of the smallest non-NaN value, -1 if none
	bestValue float64   // +Inf while bestIndex is -1
	top       []float64 // the smallest finite values, ascending; at most cap(top)
}

func newMemo(count, topN int, eval func(int) float64) *memo {
	return &memo{
		eval: eval, vals: make([]float64, count), done: make([]bool, count),
		bestIndex: -1, bestValue: math.Inf(1),
		top: make([]float64, 0, max(topN, 0)),
	}
}

func (m *memo) get(i int) float64 {
	if m.done[i] {
		return m.vals[i]
	}
	v := m.eval(i)
	m.vals[i], m.done[i] = v, true
	m.count++
	if v < m.bestValue || (v == m.bestValue && (m.bestIndex < 0 || i < m.bestIndex)) {
		m.bestIndex, m.bestValue = i, v
	}
	if !math.IsInf(v, 0) && !math.IsNaN(v) {
		m.insertTop(v)
	}
	return v
}

// insertTop adds a finite value to the ascending top window, dropping the
// largest when the window is full. Values equal to v may end on either
// side of it; only -0 and +0 differ in bits, and the CV of the window
// does not depend on where they stand.
func (m *memo) insertTop(v float64) {
	n := len(m.top)
	if n == cap(m.top) {
		if n == 0 || v >= m.top[n-1] {
			return
		}
		n-- // the largest leaves the window
	}
	m.top = m.top[:n+1]
	j := n
	for ; j > 0 && m.top[j-1] > v; j-- {
		m.top[j] = m.top[j-1]
	}
	m.top[j] = v
}
