package pmnf

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/space"
	"repro/internal/stats"
)

// This file keeps the per-target fit that Fit replaced: a fresh design per
// (i, j) candidate and per target, solved by lstsq. Fit must match it bit
// for bit, and the exactness tests compare the two.

// fitOne fits candidate (i, j) to one target.
func fitOne(ds *dataset.Dataset, groups [][]int, target []float64, i, j int) (*Model, error) {
	n := len(ds.Samples)
	p := len(groups) + 1 // intercept
	feats := make([][]float64, n)
	for r := 0; r < n; r++ {
		feats[r] = featureRow(ds.Samples[r].Setting, groups, i, j)
	}

	// Standardize columns (except the intercept).
	mean := make([]float64, p)
	std := make([]float64, p)
	mean[0], std[0] = 0, 1
	for c := 1; c < p; c++ {
		col := make([]float64, n)
		for r := 0; r < n; r++ {
			col[r] = feats[r][c]
		}
		mu, _ := stats.Mean(col)
		sd, _ := stats.StdDev(col)
		if sd == 0 {
			sd = 1
		}
		mean[c], std[c] = mu, sd
		for r := 0; r < n; r++ {
			feats[r][c] = (feats[r][c] - mu) / sd
		}
	}

	coef, err := lstsq(feats, target, ridge)
	if err != nil {
		return nil, err
	}
	m := &Model{Groups: groups, I: i, J: j, Coef: coef, Mean: mean, Std: std}
	pred := make([]float64, n)
	for r := 0; r < n; r++ {
		pred[r] = dot(coef, feats[r])
	}
	rse, err := stats.RSE(target, pred, p)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(rse) || math.IsInf(rse, 0) {
		return nil, errors.New("pmnf: non-finite RSE")
	}
	m.RSE = rse
	return m, nil
}

// referenceFit is the single-target Fit of the reference: every candidate
// of the paper's I = {0,1,2} and J = {0,1} fitted by fitOne, the smallest
// RSE kept, the first on a tie.
func referenceFit(ds *dataset.Dataset, groups [][]int, target []float64) (*Model, error) {
	var best *Model
	for _, i := range []int{0, 1, 2} {
		for _, j := range []int{0, 1} {
			if i == 0 && j == 0 {
				continue
			}
			m, err := fitOne(ds, groups, target, i, j)
			if err != nil {
				continue
			}
			if best == nil || m.RSE < best.RSE {
				best = m
			}
		}
	}
	if best == nil {
		return nil, errors.New("pmnf: no candidate function could be fitted")
	}
	return best, nil
}

// featureRow builds [1, term_1, ..., term_n] for a setting with math.Pow
// and stats.Log2, the functions term's powInt and log2p1 stand in for.
func featureRow(s space.Setting, groups [][]int, i, j int) []float64 {
	row := make([]float64, len(groups)+1)
	row[0] = 1
	for gi, g := range groups {
		term := 1.0
		for _, p := range g {
			v := float64(s[p])
			f := math.Pow(v, float64(i))
			if j > 0 {
				f *= math.Pow(stats.Log2(v)+1, float64(j))
			}
			term *= f
		}
		row[gi+1] = term
	}
	return row
}

// lstsq solves min ‖Xβ−y‖₂ via the regularized normal equations
// (XᵀX + λI)β = Xᵀy with Gaussian elimination and partial pivoting.
func lstsq(x [][]float64, y []float64, ridge float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, errors.New("pmnf: empty or mismatched design matrix")
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("pmnf: zero features")
	}
	for _, row := range x {
		if len(row) != p {
			return nil, errors.New("pmnf: ragged design matrix")
		}
	}

	// A = XᵀX + λI (p×p), b = Xᵀy.
	a := make([][]float64, p)
	b := make([]float64, p)
	for i := 0; i < p; i++ {
		a[i] = make([]float64, p)
	}
	for r := 0; r < n; r++ {
		row := x[r]
		for i := 0; i < p; i++ {
			b[i] += row[i] * y[r]
			for j := i; j < p; j++ {
				a[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < p; i++ {
		a[i][i] += ridge
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}

	// Gaussian elimination with partial pivoting.
	for col := 0; col < p; col++ {
		piv := col
		for r := col + 1; r < p; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-300 {
			return nil, errors.New("pmnf: singular normal equations")
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < p; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < p; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	beta := make([]float64, p)
	for i := p - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < p; j++ {
			s -= a[i][j] * beta[j]
		}
		beta[i] = s / a[i][i]
	}
	return beta, nil
}
