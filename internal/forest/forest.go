// Package forest implements a regression random forest (bagged CART trees
// with feature sub-sampling, Breiman 2001). The Garvey'15 comparator
// (internal/baselines/garvey) trains one on its experience dataset, with
// each sample's whole setting as the features and its measured time as the
// target. It then picks the memory-flag pair whose mean prediction over the
// dataset's settings, with their flags overwritten, is lowest.
//
// Train ranks each column once per forest: its distinct values, sorted, and
// each row's rank among them. A node tries the midpoint of each pair of
// consecutive values its rows hold, scores it by comparing ranks, and
// partitions its rows in place and stably, so each child keeps its rows in
// the order its parent held them. The trees are bit-identical to sorting
// each tried column at every node and comparing floats (DESIGN.md §18).
package forest

import (
	"errors"
	"math"
	"slices"
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
// No feature may be NaN.
func Train(x [][]float64, y []float64, opt Options) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("forest: empty or mismatched training data")
	}
	if len(x) > math.MaxInt32 {
		return nil, errors.New("forest: too many rows")
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
	cols, err := rankColumns(x)
	if err != nil {
		return nil, err
	}
	g := &grower{
		cols: cols, y: y, opt: opt,
		mtry:    int(math.Ceil(opt.FeatureFrac * float64(nFeat))),
		rng:     stats.NewRand(opt.Seed),
		yv:      make([]float64, len(x)),
		rk:      make([]int32, len(x)),
		perm:    make([]int, nFeat),
		scratch: make([]int32, 0, len(x)),
	}
	for _, c := range cols {
		if len(c.vals) > len(g.present) {
			g.present = make([]bool, len(c.vals))
		}
	}

	f := &Forest{nFeat: nFeat}
	idx := make([]int32, len(x)) // each tree's bootstrap sample, partitioned in place
	for t := 0; t < opt.Trees; t++ {
		for i := range idx {
			idx[i] = int32(g.rng.Intn(len(x)))
		}
		f.trees = append(f.trees, g.grow(idx, 0))
	}
	return f, nil
}

// column is one feature ranked once per forest: vals holds its distinct
// values in ascending order, and vals[rank[i]] == x[i][feature].
type column struct {
	vals []float64
	rank []int32
}

// rankColumns ranks every feature of x.
func rankColumns(x [][]float64) ([]column, error) {
	n, nFeat := len(x), len(x[0])
	cols := make([]column, nFeat)
	ranks := make([]int32, n*nFeat)
	vals := make([]float64, 0, n*nFeat)
	sorted := make([]float64, n)
	for ft := range cols {
		for i, r := range x {
			sorted[i] = r[ft]
		}
		sort.Float64s(sorted)
		if math.IsNaN(sorted[0]) { // sort.Float64s orders NaN first
			return nil, errors.New("forest: NaN feature")
		}
		// Compact keeps one of -0 and +0, which compare equal: a
		// threshold and a row's rank see them as one value, as x <= th does.
		start := len(vals)
		vals = append(vals, slices.Compact(sorted)...)
		col := column{vals: vals[start:len(vals):len(vals)], rank: ranks[ft*n : (ft+1)*n]}
		for i, r := range x {
			col.rank[i] = int32(sort.SearchFloat64s(col.vals, r[ft]))
		}
		cols[ft] = col
	}
	return cols, nil
}

// grower holds what every node of one forest reads, and the buffers each
// node reuses in turn: a node is done with them before its children grow.
type grower struct {
	cols []column
	y    []float64
	opt  Options
	mtry int
	rng  *stats.Rand

	yv []float64 // the node's targets, in the order of its rows
	rk []int32   // the node's ranks in the tried column, in the same order
	// present marks the ranks the node's rows hold in the tried column; the
	// scan that reads a mark clears it, so it is all false between columns.
	present []bool
	perm    []int   // the node's feature permutation
	scratch []int32 // the node's high rows while it partitions
	nodes   []node  // the block new nodes are placed in
}

// grow builds one CART tree over the rows idx lists, which it reorders.
func (g *grower) grow(idx []int32, depth int) *node {
	yv := g.yv[:len(idx)] // the node's targets in idx order
	mean := 0.0
	for k, i := range idx {
		yv[k] = g.y[i]
		mean += yv[k]
	}
	mean /= float64(len(idx))

	if depth >= g.opt.MaxDepth || len(idx) < 2*g.opt.MinLeaf || pure(yv) {
		return g.newNode(node{leaf: true, value: mean})
	}

	bestFeat, bestCut, bestThresh, bestScore := -1, int32(0), 0.0, math.Inf(1)
	rk := g.rk[:len(idx)] // the tried column's ranks in idx order
	g.rng.PermInto(g.perm)
	for _, ft := range g.perm[:g.mtry] {
		col := &g.cols[ft]
		for k, i := range idx {
			rk[k] = col.rank[i]
			g.present[rk[k]] = true
		}
		// Thresholds in ascending order, over consecutive values the node
		// holds; a strict < keeps the first best.
		prev := -1
		for r, v := range col.vals {
			if !g.present[r] {
				continue
			}
			g.present[r] = false
			if prev >= 0 {
				th := (v + col.vals[prev]) / 2
				c := cut(col.vals, prev, r, th)
				if score := splitSSE(rk, yv, c, g.opt.MinLeaf); score < bestScore {
					bestFeat, bestCut, bestThresh, bestScore = ft, c, th, score
				}
			}
			prev = r
		}
	}
	if bestFeat < 0 {
		return g.newNode(node{leaf: true, value: mean})
	}
	// The best split's score is finite, so each side holds at least MinLeaf
	// rows.
	nLo := g.partition(g.cols[bestFeat].rank, idx, bestCut)
	n := g.newNode(node{feature: bestFeat, thresh: bestThresh})
	n.lo = g.grow(idx[:nLo], depth+1)
	n.hi = g.grow(idx[nLo:], depth+1)
	return n
}

// newNode places n in the current block of nodes, starting a new block when
// it is full, so a forest makes one allocation per 256 nodes.
func (g *grower) newNode(n node) *node {
	if len(g.nodes) == cap(g.nodes) {
		g.nodes = make([]node, 0, 256)
	}
	g.nodes = append(g.nodes, n)
	return &g.nodes[len(g.nodes)-1]
}

// cut returns the highest rank whose value is at most th, so that a row goes
// low iff its rank is at most the cut, exactly as x <= th sends it. The
// midpoint th of the node's consecutive values vals[prev] < vals[r] can
// round up to vals[r] (for a = Nextafter(1, 2) and b = Nextafter(a, 2),
// (a+b)/2 == b), so the cut is r then and prev otherwise. No row of the
// node ranks between prev and r. The loops run only when th left
// [vals[prev], vals[r]]: the sum overflowed, or it was -Inf plus +Inf.
func cut(vals []float64, prev, r int, th float64) int32 {
	c := prev
	if vals[r] <= th {
		c = r
		for c+1 < len(vals) && vals[c+1] <= th {
			c++
		}
	}
	for c >= 0 && !(vals[c] <= th) {
		c--
	}
	return int32(c)
}

// partition moves idx's low rows (rank at most c) to its front and its high
// rows after them, each in the order idx held them, and returns the number
// of low rows.
func (g *grower) partition(rank []int32, idx []int32, c int32) int {
	nLo := 0
	hi := g.scratch[:0]
	for _, i := range idx {
		if rank[i] <= c {
			idx[nLo] = i
			nLo++
		} else {
			hi = append(hi, i)
		}
	}
	copy(idx[nLo:], hi)
	return nLo
}

func pure(yv []float64) bool {
	for _, v := range yv[1:] {
		if v != yv[0] {
			return false
		}
	}
	return true
}

// splitSSE returns the summed squared error of the two children of cut c,
// +Inf when a child would underflow MinLeaf. rk and yv hold the node's ranks
// and targets in idx order, and each side sums in that order: one pass for
// the means, one for the errors. A row's side indexes the accumulators, so
// the passes do not branch on it.
func splitSSE(rk []int32, yv []float64, c int32, minLeaf int) float64 {
	var n [2]int
	var s [2]float64
	for k, r := range rk {
		hi := uint32(c-r) >> 31 // 1 iff r > c
		n[hi]++
		s[hi] += yv[k]
	}
	if n[0] < minLeaf || n[1] < minLeaf {
		return math.Inf(1)
	}
	m := [2]float64{s[0] / float64(n[0]), s[1] / float64(n[1])}
	sse := 0.0
	for k, r := range rk {
		d := yv[k] - m[uint32(c-r)>>31]
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
