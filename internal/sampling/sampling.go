// Package sampling implements csTuner's search-space sampling stage (paper
// Sec. IV-D/IV-E): the fitted PMNF models predict the selected GPU metrics
// for a large pool of candidate settings, settings whose predictions fall on
// the slow side of the metric thresholds are filtered out, and the surviving
// fraction (the sampling ratio) becomes the sampled search space. The valid
// value tuples of every parameter group are then re-indexed into dense
// integer ranges for the genetic algorithm's binary genes (paper Fig. 7).
package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/pmnf"
	"repro/internal/space"
	"repro/internal/stats"
)

// Config controls sampled-space construction.
type Config struct {
	// Ratio is the fraction of the candidate pool kept (paper default 10%).
	Ratio float64
	// PoolSize is the number of candidate settings scored (dataset samples
	// are always included on top). Default 4096.
	PoolSize int
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config { return Config{Ratio: 0.10, PoolSize: 4096} }

// Sampled is the narrowed search space.
type Sampled struct {
	// Settings are the surviving candidates, best predicted score first.
	Settings []space.Setting
	// Groups is the parameter grouping the space was built around.
	Groups [][]int
	// Values[g] lists the distinct value tuples of group g present in the
	// sampled space, sorted ascending — the re-indexed gene range [0, len).
	Values [][][]int

	sp *space.Space // the space Settings belong to
}

// Draw returns the candidate pool Score scores, coded: the measured
// dataset settings plus cfg.PoolSize fresh random valid settings drawn
// from rng, deduplicated, in that order. The random settings are drawn
// into one setting; a draw that repeats a pool entry is overwritten by the
// next. Draw needs neither the grouping nor the models, so a tune draws
// the pool while it fits them.
func Draw(ds *dataset.Dataset, sp *space.Space, rng *stats.Rand, cfg Config) (*space.Coded, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4096
	}
	n := sp.N()
	size := cfg.PoolSize + len(ds.Samples)
	pool := sp.NewCoded(size)
	for i, s := range ds.Samples {
		if len(s.Setting) != n {
			return nil, fmt.Errorf("sampling: dataset sample %d has %d parameters, space has %d", i, len(s.Setting), n)
		}
		// Measured settings passed every constraint already.
		if _, err := pool.Add(s.Setting); err != nil {
			return nil, err
		}
	}
	cand := make(space.Setting, n)
	for tries := 0; pool.Len() < size && tries < 50*cfg.PoolSize; tries++ {
		sp.RandomInto(cand, rng)
		if _, err := pool.Add(cand); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// Score scores a candidate pool from Draw with the per-metric PMNF models
// and keeps the best cfg.Ratio fraction.
//
// Each selected metric contributes sign(TimePCC)·zscore(prediction) to a
// setting's score: a metric positively correlated with time votes against
// settings predicted to raise it, and vice versa. Keeping the lowest-scored
// fraction is equivalent to the paper's per-metric thresholds with the
// thresholds set at the ratio quantile of the combined evidence.
func Score(pool *space.Coded, groups [][]int, selected []metrics.Selected,
	models map[string]*pmnf.Model, cfg Config) (*Sampled, error) {

	if cfg.Ratio <= 0 || cfg.Ratio > 1 {
		return nil, fmt.Errorf("sampling: ratio %v outside (0,1]", cfg.Ratio)
	}
	if len(selected) == 0 {
		return nil, errors.New("sampling: no selected metrics")
	}
	for _, sel := range selected {
		m := models[sel.Name]
		if m == nil {
			return nil, fmt.Errorf("sampling: no model for metric %q", sel.Name)
		}
		if !slices.EqualFunc(m.Groups, groups, slices.Equal[[]int]) {
			return nil, fmt.Errorf("sampling: model for metric %q was fitted over other groups", sel.Name)
		}
	}
	size := pool.Len()

	// Score: z-scored model predictions, signed by time correlation.
	indexed := pmnf.NewPool(pool, groups)
	score := make([]float64, size)
	preds := make([]float64, size)
	for _, sel := range selected {
		indexed.Predict(models[sel.Name], preds)
		mu, _ := stats.Mean(preds)
		sd, _ := stats.StdDev(preds)
		if sd == 0 {
			continue // uninformative model: no vote
		}
		// Each metric votes with the sign and the strength of its time
		// correlation: a near-perfect time proxy dominates, a weakly
		// correlated cache metric only nudges.
		weight := sel.TimePCC
		for i := range score {
			score[i] += weight * (preds[i] - mu) / sd
		}
	}

	keep := int(math.Ceil(cfg.Ratio * float64(size)))
	if keep < 1 {
		keep = 1
	}
	if keep > size {
		keep = size
	}
	// Only the kept candidates are decoded into settings, into one array.
	sp := pool.Space()
	n := sp.N()
	flat := make([]int, keep*n)
	out := &Sampled{Groups: groups, Settings: make([]space.Setting, keep), sp: sp}
	for k, r := range smallest(score, keep) {
		out.Settings[k] = flat[k*n : (k+1)*n : (k+1)*n]
		pool.Decode(r.index, out.Settings[k])
	}
	out.reindex()
	return out, nil
}

// ranked is one pool candidate's combined score and pool index.
type ranked struct {
	score float64
	index int
}

// smallest returns the first keep entries of rank(score) without sorting
// the whole pool. Without a NaN, (score, pool index) orders the candidates
// totally and rank's stable sort is that order, so a max-heap of the keep
// smallest pairs seen so far, heap-sorted at the end, gives the same
// prefix. A NaN compares equal to every score under <, and only rank
// reproduces where sort.SliceStable puts it.
func smallest(score []float64, keep int) []ranked {
	if slices.ContainsFunc(score, math.IsNaN) {
		return rank(score)[:keep]
	}
	h := make([]ranked, keep)
	for i := range h {
		h[i] = ranked{score: score[i], index: i}
	}
	for i := keep/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := keep; i < len(score); i++ {
		// Every index in h is below i, so an equal score ranks after h[0].
		if score[i] < h[0].score {
			h[0] = ranked{score: score[i], index: i}
			siftDown(h, 0)
		}
	}
	for end := keep - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	return h
}

// before reports whether a ranks ahead of b: a lower score, or an equal
// one (-0 and +0 are equal) earlier in the pool.
func before(a, b ranked) bool {
	return a.score < b.score || (a.score == b.score && a.index < b.index)
}

// siftDown moves h[i] down until no child of it ranks after it, keeping
// the last-ranked pair of h at h[0].
func siftDown(h []ranked, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c], h[c+1]) {
			c++
		}
		if !before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// rank orders the candidates by ascending score, ties in pool order.
// slices.SortStableFunc runs the blocks-of-20 insertion sort and symMerge of
// sort.SliceStable and tests only cmp < 0, so with a cmp that is negative
// exactly when a < b the permutation is the one sort.SliceStable gives,
// NaN scores included.
func rank(score []float64) []ranked {
	order := make([]ranked, len(score))
	for i := range order {
		order[i] = ranked{score: score[i], index: i}
	}
	slices.SortStableFunc(order, func(a, b ranked) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return 0
	})
	return order
}

// reindex computes Values: the sorted distinct tuples per group.
//
// A tuple is numbered mixed radix over its parameters' value codes
// (Param.Index), the group's first parameter the most significant digit.
// Param.Values ascend, so the numbers order as the tuples do: a bitmap
// over a group's numbers marks the tuples present, and its set bits, read
// in order, decode to the distinct tuples sorted, which share one array.
// The bitmap holds at most 64 bits per setting. A group with more numbers
// than that, or holding a value outside its parameters' Values, sorts its
// tuples instead.
func (s *Sampled) reindex() {
	s.Values = make([][][]int, len(s.Groups))
	limit := 64 * len(s.Settings)
	var seen []uint64 // bit x is set when some setting's tuple numbers x
	for gi, g := range s.Groups {
		span := s.span(g, limit)
		if span <= limit {
			seen = slices.Grow(seen[:0], (span+63)/64)[:(span+63)/64]
		}
		if span > limit || !s.mark(g, seen) {
			s.Values[gi] = sortedTuples(s.Settings, g)
			continue
		}
		distinct := 0
		for _, w := range seen {
			distinct += bits.OnesCount64(w)
		}
		m := len(g)
		flat := make([]int, distinct*m)
		tuples := make([][]int, distinct)
		k := 0
		for i, w := range seen {
			for ; w != 0; w &= w - 1 {
				t := flat[k*m : (k+1)*m : (k+1)*m]
				x := i*64 + bits.TrailingZeros64(w)
				for d := m - 1; d >= 0; d-- {
					vals := s.sp.Params[g[d]].Values
					t[d] = vals[x%len(vals)]
					x /= len(vals)
				}
				tuples[k] = t
				k++
			}
		}
		s.Values[gi] = tuples
	}
}

// span returns how many numbers group g's tuples can take, or limit+1
// when that exceeds limit.
func (s *Sampled) span(g []int, limit int) int {
	span := 1
	for _, p := range g {
		r := len(s.sp.Params[p].Values)
		if r > 0 && span > limit/r {
			return limit + 1
		}
		span *= r
	}
	return span
}

// mark clears seen, which holds a bit per number of a group-g tuple, and
// sets the bit of every setting's tuple. It reports false, leaving seen
// part set, when a setting holds a value outside its parameter's Values.
func (s *Sampled) mark(g []int, seen []uint64) bool {
	clear(seen)
	for _, set := range s.Settings {
		x := 0
		for _, p := range g {
			param := &s.sp.Params[p]
			c := param.Index(set[p])
			if c < 0 {
				return false
			}
			x = x*len(param.Values) + c
		}
		seen[x/64] |= 1 << (x % 64)
	}
	return true
}

// sortedTuples returns the sorted distinct group-g tuples of settings by
// comparing the tuples themselves.
func sortedTuples(settings []space.Setting, g []int) [][]int {
	tuples := make([][]int, len(settings))
	for i, set := range settings {
		tuples[i] = make([]int, len(g))
		for k, p := range g {
			tuples[i][k] = set[p]
		}
	}
	slices.SortFunc(tuples, slices.Compare[[]int])
	return slices.CompactFunc(tuples, slices.Equal[[]int])
}

// Include appends settings absent from the sampled space (deduplicated by
// key, in the given order) and re-indexes the gene ranges. Warm-started
// campaigns use it to guarantee a prior campaign's best settings are
// reachable by the GA even when the model-based filter would have dropped
// them.
func (s *Sampled) Include(settings []space.Setting) int {
	if len(settings) == 0 {
		return 0
	}
	seen := make(map[string]struct{}, len(s.Settings))
	for _, set := range s.Settings {
		seen[set.Key()] = struct{}{}
	}
	added := 0
	for _, set := range settings {
		k := set.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		s.Settings = append(s.Settings, set.Clone())
		added++
	}
	if added > 0 {
		s.reindex()
	}
	return added
}

// TupleIndex returns the gene index of set's group-gi value tuple in the
// re-indexed range, or -1 when the tuple is not part of the sampled space.
func (s *Sampled) TupleIndex(set space.Setting, gi int) int {
	if gi < 0 || gi >= len(s.Groups) {
		return -1
	}
	g := s.Groups[gi]
	tuple := make([]int, len(g))
	for i, p := range g {
		if p < 0 || p >= len(set) {
			return -1
		}
		tuple[i] = set[p]
	}
	if idx, found := slices.BinarySearchFunc(s.Values[gi], tuple, slices.Compare[[]int]); found {
		return idx
	}
	return -1
}

// Apply writes group gi's tupleIdx-th value tuple into the setting in place.
func (s *Sampled) Apply(set space.Setting, gi, tupleIdx int) error {
	if gi < 0 || gi >= len(s.Groups) {
		return fmt.Errorf("sampling: group %d out of range", gi)
	}
	tuples := s.Values[gi]
	if tupleIdx < 0 || tupleIdx >= len(tuples) {
		return fmt.Errorf("sampling: tuple %d out of range for group %d (have %d)", tupleIdx, gi, len(tuples))
	}
	for i, p := range s.Groups[gi] {
		set[p] = tuples[tupleIdx][i]
	}
	return nil
}

// Best returns the first (best-predicted) setting of the sampled space.
func (s *Sampled) Best() (space.Setting, error) {
	if len(s.Settings) == 0 {
		return nil, errors.New("sampling: empty sampled space")
	}
	return s.Settings[0].Clone(), nil
}
