package forest

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// referenceTrain is Train as it was before columns were ranked once per
// forest: every node copies and sorts each tried column, tries the midpoint
// of each pair of consecutive distinct values, scores it by rescanning the
// node's rows with float comparisons, and appends its rows to two new child
// slices. TestTrainMatchesReference holds Train to it tree by tree.
func referenceTrain(x [][]float64, y []float64, opt Options) *Forest {
	mtry := int(math.Ceil(opt.FeatureFrac * float64(len(x[0]))))
	f := &Forest{nFeat: len(x[0])}
	rng := stats.NewRand(opt.Seed)
	for t := 0; t < opt.Trees; t++ {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		f.trees = append(f.trees, referenceGrow(x, y, idx, 0, opt, mtry, rng))
	}
	return f
}

func referenceGrow(x [][]float64, y []float64, idx []int, depth int, opt Options, mtry int, rng *stats.Rand) *node {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))

	if depth >= opt.MaxDepth || len(idx) < 2*opt.MinLeaf || referencePure(y, idx) {
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
			score := referenceSplitSSE(x, y, idx, ft, th, opt.MinLeaf)
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
		lo: referenceGrow(x, y, lo, depth+1, opt, mtry, rng),
		hi: referenceGrow(x, y, hi, depth+1, opt, mtry, rng),
	}
}

func referencePure(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

func referenceSplitSSE(x [][]float64, y []float64, idx []int, ft int, th float64, minLeaf int) float64 {
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

// TestTrainMatchesReference trains Train and referenceTrain on seeded
// inputs and requires every tree to be the same node for node: leaf flag,
// feature, the bits of the threshold and of the value, and shape.
func TestTrainMatchesReference(t *testing.T) {
	for c := 0; c < 300; c++ {
		rng := stats.NewRand(int64(1000 + c))
		nFeat := 1 + rng.Intn(20)
		nRows := 8 + rng.Intn(89)
		var x [][]float64
		switch c % 3 {
		case 0: // Garvey's shape: each column takes 2 to 10 powers of two
			x = powColumns(rng, nRows, nFeat)
		case 1: // continuous
			for range nRows {
				row := make([]float64, nFeat)
				for j := range row {
					row[j] = rng.Float64() * 100
				}
				x = append(x, row)
			}
		case 2: // three values, many ties, and duplicate rows
			for i := range nRows {
				if i > 0 && rng.Intn(3) == 0 {
					x = append(x, x[rng.Intn(i)])
					continue
				}
				row := make([]float64, nFeat)
				for j := range row {
					row[j] = float64(rng.Intn(3))
				}
				x = append(x, row)
			}
		}
		y := make([]float64, nRows)
		for i := range y {
			if c%4 == 3 { // few targets: pure nodes and tied scores
				y[i] = float64(rng.Intn(3))
			} else {
				y[i] = rng.Float64() * 10
			}
		}
		opt := Options{
			Trees: 4, MaxDepth: 1 + c%12, MinLeaf: 1 + rng.Intn(4),
			FeatureFrac: 1.0 / 3.0, Seed: int64(c),
		}
		if c%2 == 1 {
			opt.FeatureFrac = 1
		}
		requireSameForest(t, c, x, y, opt)
	}
}

// TestTrainMatchesReferenceAtEdges covers thresholds that do not fall
// strictly between the node's two values: a midpoint that rounds up to the
// upper value, sums that overflow, infinities and signed zeros.
func TestTrainMatchesReferenceAtEdges(t *testing.T) {
	a := math.Nextafter(1, 2)
	b := math.Nextafter(a, 2)
	if (a+b)/2 != b {
		t.Fatalf("(a+b)/2 = %v, want b = %v", (a+b)/2, b)
	}
	m := math.MaxFloat64
	columns := [][]float64{
		{a, b, 2},
		{m / 2, m * 0.75, m, -m, 0},
		{-m, -m * 0.75, math.Inf(-1), 1},
		{math.Inf(-1), math.Inf(1), 0},
		{math.Inf(-1), 0, math.Inf(1)},
		{math.Copysign(0, -1), 0, 1, -1},
	}
	for c, vals := range columns {
		var x [][]float64
		var y []float64
		for rep := range 4 {
			for k, v := range vals {
				x = append(x, []float64{v, float64(rep)})
				y = append(y, float64(k*k)+0.25*float64(rep))
			}
		}
		for _, minLeaf := range []int{1, 2} {
			opt := Options{Trees: 8, MaxDepth: 6, MinLeaf: minLeaf, FeatureFrac: 1, Seed: int64(c)}
			requireSameForest(t, c, x, y, opt)
		}
	}

	// The midpoint rule decides this tree: cutting at a sends b high and
	// makes (b+2)/2 the better threshold.
	x := [][]float64{{a}, {b}, {2}, {a}, {b}, {2}}
	y := []float64{0, 0, 10, 0, 0, 10}
	f, err := Train(x, y, Options{Trees: 1, MaxDepth: 1, MinLeaf: 1, FeatureFrac: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if root := f.trees[0]; root.leaf || root.thresh != b {
		t.Fatalf("root threshold %v, want b = %v", root.thresh, b)
	}
}

func powColumns(rng *stats.Rand, nRows, nFeat int) [][]float64 {
	levels := make([]int, nFeat)
	for j := range levels {
		levels[j] = 2 + rng.Intn(9)
	}
	x := make([][]float64, nRows)
	for i := range x {
		x[i] = make([]float64, nFeat)
		for j, n := range levels {
			x[i][j] = float64(int(1) << rng.Intn(n))
		}
	}
	return x
}

func requireSameForest(t *testing.T, c int, x [][]float64, y []float64, opt Options) {
	t.Helper()
	got, err := Train(x, y, opt)
	if err != nil {
		t.Fatalf("case %d: %v", c, err)
	}
	want := referenceTrain(x, y, opt)
	if len(got.trees) != len(want.trees) {
		t.Fatalf("case %d: %d trees, want %d", c, len(got.trees), len(want.trees))
	}
	for i := range want.trees {
		if d := diffTree(got.trees[i], want.trees[i], "root"); d != "" {
			t.Fatalf("case %d (%+v), tree %d: %s", c, opt, i, d)
		}
	}
}

// diffTree describes the first node where a and b differ, or returns "".
func diffTree(a, b *node, path string) string {
	switch {
	case a.leaf != b.leaf:
		return fmt.Sprintf("%s: leaf %v, want %v", path, a.leaf, b.leaf)
	case a.leaf:
		if math.Float64bits(a.value) != math.Float64bits(b.value) {
			return fmt.Sprintf("%s: value %v, want %v", path, a.value, b.value)
		}
		return ""
	case a.feature != b.feature:
		return fmt.Sprintf("%s: feature %d, want %d", path, a.feature, b.feature)
	case math.Float64bits(a.thresh) != math.Float64bits(b.thresh):
		return fmt.Sprintf("%s: threshold %v, want %v", path, a.thresh, b.thresh)
	}
	if d := diffTree(a.lo, b.lo, path+".lo"); d != "" {
		return d
	}
	return diffTree(a.hi, b.hi, path+".hi")
}
