// Package pmnf implements the performance-model-normal-form regression of
// csTuner's search-space sampling stage (paper Sec. IV-D, Eq. 3):
//
//	f(P) = Σ_k c_k · Π_{l∈group k} P_l^i · log2^j(P_l)
//
// Parameters inside a group (strong correlation) multiply into one term;
// groups (weak correlation) accumulate. A single global exponent pair (i, j)
// is drawn from I×J — the paper sets I={0,1,2}, J={0,1} — so the function
// search space is |I|·|J| candidates regardless of parameter count, instead
// of the exponential PMNF space that limits tools like Extra-P to four
// parameters. Each candidate is fitted by linear least squares (the model is
// linear in the c_k) and the winner is chosen by residual standard error,
// since R² is invalid for nonlinear response surfaces.
package pmnf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/space"
	"repro/internal/stats"
)

// DefaultI and DefaultJ are the paper's exponent ranges (Sec. V-A2).
var (
	DefaultI = []int{0, 1, 2}
	DefaultJ = []int{0, 1}
)

// Model is one fitted PMNF function for a single target (a GPU metric or
// execution time).
type Model struct {
	Groups [][]int // parameter groups, as produced by package grouping
	I, J   int     // selected exponents
	Coef   []float64
	// Feature standardization (fitted on the training set): the raw group
	// products span many orders of magnitude, so each feature column is
	// z-scored before solving.
	Mean, Std []float64
	RSE       float64
}

// Fit enumerates the (i, j) candidates, fits each by least squares on the
// dataset, and returns the model with the smallest RSE. target must align
// with ds.Samples.
func Fit(ds *dataset.Dataset, groups [][]int, target []float64, is, js []int) (*Model, error) {
	if len(target) != len(ds.Samples) {
		return nil, errors.New("pmnf: target length mismatch")
	}
	if len(ds.Samples) == 0 {
		return nil, errors.New("pmnf: empty dataset")
	}
	if len(is) == 0 {
		is = DefaultI
	}
	if len(js) == 0 {
		js = DefaultJ
	}

	var best *Model
	for _, i := range is {
		for _, j := range js {
			if i == 0 && j == 0 {
				// Every term degenerates to a constant; nothing to fit.
				continue
			}
			m, err := fitOne(ds, groups, target, i, j)
			if err != nil {
				continue // singular candidates simply lose the selection
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

	coef, err := lstsq(feats, target, 1e-8)
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

// featureRow builds [1, term_1, ..., term_n] for a setting.
func featureRow(s space.Setting, groups [][]int, i, j int) []float64 {
	row := make([]float64, len(groups)+1)
	row[0] = 1
	for gi, g := range groups {
		term := 1.0
		for _, p := range g {
			v := float64(s[p])
			f := math.Pow(v, float64(i))
			if j > 0 {
				// log2(1) = 0 would annihilate the term for the smallest
				// parameter value; the +1 offset keeps it positive, the
				// same convention the grouping stage uses.
				f *= math.Pow(stats.Log2(v)+1, float64(j))
			}
			term *= f
		}
		row[gi+1] = term
	}
	return row
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Predict evaluates the fitted function on a setting. It adds up the same
// products in the same order as dot(m.Coef, standardized featureRow(s)),
// one group term at a time, so it returns the same bits without building
// the row.
func (m *Model) Predict(s space.Setting) float64 {
	sum := 0.0
	sum += m.Coef[0] * 1
	for gi, g := range m.Groups {
		term := 1.0
		for _, p := range g {
			f := powInt(float64(s[p]), m.I)
			if m.J > 0 {
				f *= powInt(log2p1(s[p]), m.J)
			}
			term *= f
		}
		c := gi + 1
		sum += m.Coef[c] * ((term - m.Mean[c]) / m.Std[c])
	}
	return sum
}

// log2p1Table holds stats.Log2(v)+1 for the small integers every Table I
// parameter value falls in.
var log2p1Table = func() (t [1025]float64) {
	for v := range t {
		t[v] = stats.Log2(float64(v)) + 1
	}
	return t
}()

// log2p1 returns stats.Log2(float64(v)) + 1, from the table when v is in it.
func log2p1(v int) float64 {
	if v >= 0 && v < len(log2p1Table) {
		return log2p1Table[v]
	}
	return stats.Log2(float64(v)) + 1
}

// powInt returns math.Pow(x, n). For n = 0, 1 and 2 it computes 1, x and
// x*x directly, which is exactly what Pow returns for those exponents.
func powInt(x float64, n int) float64 {
	switch n {
	case 0:
		return 1
	case 1:
		return x
	case 2:
		return x * x
	}
	return math.Pow(x, float64(n))
}

// String summarizes the selected function.
func (m *Model) String() string {
	return fmt.Sprintf("PMNF(i=%d,j=%d,groups=%d,rse=%.4g)", m.I, m.J, len(m.Groups), m.RSE)
}
