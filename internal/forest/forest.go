// Package forest implements a regression random forest (bagged CART trees
// with feature sub-sampling, Breiman 2001). The Garvey'15 comparator trains
// one to predict the best memory-type configuration for a stencil from its
// static features before its per-group exhaustive search.
package forest

import (
	"errors"
	"math"
	"sort"

	"repro/internal/stats"
)

// Options configures training.
type Options struct {
	Trees       int     // number of bagged trees (default 50)
	MaxDepth    int     // tree depth cap (default 8)
	MinLeaf     int     // minimum samples per leaf (default 2)
	FeatureFrac float64 // fraction of features tried per split (default 1/3)
	Seed        int64
}

// DefaultOptions returns sensible small-data defaults.
func DefaultOptions() Options {
	return Options{Trees: 50, MaxDepth: 8, MinLeaf: 2, FeatureFrac: 1.0 / 3.0, Seed: 1}
}

// Forest is a trained regression forest.
type Forest struct {
	trees []*node
	nFeat int
}

type node struct {
	feature int
	thresh  float64
	value   float64 // leaf prediction
	lo, hi  *node
	leaf    bool
}

// Train fits a forest on rows x (each of equal length) against target y.
func Train(x [][]float64, y []float64, opt Options) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("forest: empty or mismatched training data")
	}
	nFeat := len(x[0])
	if nFeat == 0 {
		return nil, errors.New("forest: zero features")
	}
	for _, r := range x {
		if len(r) != nFeat {
			return nil, errors.New("forest: ragged feature rows")
		}
	}
	if opt.Trees <= 0 {
		opt.Trees = 50
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 8
	}
	if opt.MinLeaf <= 0 {
		opt.MinLeaf = 2
	}
	if opt.FeatureFrac <= 0 || opt.FeatureFrac > 1 {
		opt.FeatureFrac = 1.0 / 3.0
	}
	mtry := int(math.Ceil(opt.FeatureFrac * float64(nFeat)))

	f := &Forest{nFeat: nFeat}
	rng := stats.NewRand(opt.Seed)
	for t := 0; t < opt.Trees; t++ {
		// Bootstrap sample.
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		f.trees = append(f.trees, grow(x, y, idx, 0, opt, mtry, rng))
	}
	return f, nil
}

// grow recursively builds one CART tree.
func grow(x [][]float64, y []float64, idx []int, depth int, opt Options, mtry int, rng *stats.Rand) *node {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))

	if depth >= opt.MaxDepth || len(idx) < 2*opt.MinLeaf || pure(y, idx) {
		return &node{leaf: true, value: mean}
	}

	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	feats := rng.Perm(len(x[0]))[:mtry]
	for _, ft := range feats {
		vals := make([]float64, len(idx))
		for k, i := range idx {
			vals[k] = x[i][ft]
		}
		sort.Float64s(vals)
		for k := 1; k < len(vals); k++ {
			if vals[k] == vals[k-1] {
				continue
			}
			th := (vals[k] + vals[k-1]) / 2
			score := splitSSE(x, y, idx, ft, th, opt.MinLeaf)
			if score < bestScore {
				bestFeat, bestThresh, bestScore = ft, th, score
			}
		}
	}
	if bestFeat < 0 {
		return &node{leaf: true, value: mean}
	}

	var lo, hi []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	if len(lo) < opt.MinLeaf || len(hi) < opt.MinLeaf {
		return &node{leaf: true, value: mean}
	}
	return &node{
		feature: bestFeat, thresh: bestThresh,
		lo: grow(x, y, lo, depth+1, opt, mtry, rng),
		hi: grow(x, y, hi, depth+1, opt, mtry, rng),
	}
}

func pure(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

// splitSSE returns the summed squared error of the two children, +Inf when a
// child would underflow MinLeaf.
func splitSSE(x [][]float64, y []float64, idx []int, ft int, th float64, minLeaf int) float64 {
	var nLo, nHi float64
	var sLo, sHi float64
	for _, i := range idx {
		if x[i][ft] <= th {
			nLo++
			sLo += y[i]
		} else {
			nHi++
			sHi += y[i]
		}
	}
	if int(nLo) < minLeaf || int(nHi) < minLeaf {
		return math.Inf(1)
	}
	mLo, mHi := sLo/nLo, sHi/nHi
	sse := 0.0
	for _, i := range idx {
		var d float64
		if x[i][ft] <= th {
			d = y[i] - mLo
		} else {
			d = y[i] - mHi
		}
		sse += d * d
	}
	return sse
}

// Predict returns the forest's mean prediction for one feature row.
func (f *Forest) Predict(row []float64) (float64, error) {
	if len(row) != f.nFeat {
		return 0, errors.New("forest: feature length mismatch")
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += eval(t, row)
	}
	return sum / float64(len(f.trees)), nil
}

func eval(n *node, row []float64) float64 {
	for !n.leaf {
		if row[n.feature] <= n.thresh {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.value
}
