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

// exponentsI and exponentsJ are the paper's exponent ranges I and J
// (Sec. V-A2).
var (
	exponentsI = [...]int{0, 1, 2}
	exponentsJ = [...]int{0, 1}
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

// Fit fits one model per target and returns them in the order of targets;
// every target must align with ds.Samples. For each target it enumerates
// the (i, j) candidates of I×J, fits each by least squares on the dataset,
// and keeps the one with the smallest RSE, the first in (i, j) order on a
// tie.
//
// A candidate's design, the standardized feature rows and the eliminated
// normal equations, depends only on the settings, so Fit builds it once and
// solves it for every target. Each target's solution takes the same float
// operations in the same order as a fit of that target alone.
func Fit(ds *dataset.Dataset, groups [][]int, targets [][]float64) ([]*Model, error) {
	if len(targets) == 0 {
		return nil, errors.New("pmnf: no targets")
	}
	for k, y := range targets {
		if len(y) != len(ds.Samples) {
			return nil, &TargetError{Target: k, Err: errors.New("pmnf: target length mismatch")}
		}
	}
	if len(ds.Samples) == 0 {
		return nil, errors.New("pmnf: empty dataset")
	}

	d := newDesign(len(ds.Samples), len(groups)+1)
	models := make([]*Model, len(targets))
	for _, i := range exponentsI {
		for _, j := range exponentsJ {
			if i == 0 && j == 0 {
				// Every term degenerates to a constant; nothing to fit.
				continue
			}
			if !d.build(ds, groups, i, j) {
				continue // a singular candidate loses the selection for every target
			}
			for k, y := range targets {
				rse, ok := d.solve(y)
				if !ok {
					continue
				}
				if models[k] == nil || rse < models[k].RSE {
					models[k] = d.keep(models[k], groups, i, j, rse)
				}
			}
		}
	}
	for k, m := range models {
		if m == nil {
			return nil, &TargetError{Target: k, Err: errors.New("pmnf: no candidate function could be fitted")}
		}
	}
	return models, nil
}

// TargetError is Fit's error for one target: its index in Fit's targets
// and why no model was fitted to it.
type TargetError struct {
	Target int
	Err    error
}

func (e *TargetError) Error() string { return fmt.Sprintf("pmnf: target %d: %v", e.Target, e.Err) }

func (e *TargetError) Unwrap() error { return e.Err }

// ridge is the λ of the regularized normal equations (XᵀX + λI)β = Xᵀy. It
// keeps rank-deficient designs (e.g. a constant feature column when every
// sampled value of a group is identical) solvable without special casing;
// its bias is far below measurement noise.
const ridge = 1e-8

// design is the least-squares system of one (i, j) candidate: the n×p
// standardized feature rows x and the normal matrix a = XᵀX + λI after
// Gaussian elimination with partial pivoting. piv and ops record the row
// swaps and the row updates b[r] -= f·b[col] the elimination made, so a
// target's right-hand side Xᵀy goes through exactly the same steps.
type design struct {
	n, p      int
	x         []float64
	mean, std []float64
	a         []float64
	piv       []int
	ops       []rowOp
	col       []float64 // one feature column, for the standardization
	b, coef   []float64 // one target's right-hand side and solution
	pred      []float64 // one target's fitted values
}

type rowOp struct {
	col, r int
	f      float64
}

func newDesign(n, p int) *design {
	return &design{
		n: n, p: p,
		x: make([]float64, n*p), mean: make([]float64, p), std: make([]float64, p),
		a: make([]float64, p*p), piv: make([]int, p),
		col: make([]float64, n), b: make([]float64, p), coef: make([]float64, p),
		pred: make([]float64, n),
	}
}

// build fills the design of candidate (i, j) and eliminates its normal
// matrix. It reports false when the normal equations are singular.
func (d *design) build(ds *dataset.Dataset, groups [][]int, i, j int) bool {
	n, p, x := d.n, d.p, d.x
	for r := 0; r < n; r++ {
		row := x[r*p : (r+1)*p]
		row[0] = 1
		for gi, g := range groups {
			row[gi+1] = term(ds.Samples[r].Setting, g, i, j)
		}
	}

	// Standardize columns (except the intercept).
	d.mean[0], d.std[0] = 0, 1
	for c := 1; c < p; c++ {
		for r := 0; r < n; r++ {
			d.col[r] = x[r*p+c]
		}
		mu, _ := stats.Mean(d.col)
		sd, _ := stats.StdDev(d.col)
		if sd == 0 {
			sd = 1
		}
		d.mean[c], d.std[c] = mu, sd
		for r := 0; r < n; r++ {
			x[r*p+c] = (x[r*p+c] - mu) / sd
		}
	}

	// A = XᵀX + λI, accumulated in row order over the upper triangle.
	a := d.a
	clear(a)
	for r := 0; r < n; r++ {
		row := x[r*p : (r+1)*p]
		for c := 0; c < p; c++ {
			for k := c; k < p; k++ {
				a[c*p+k] += row[c] * row[k]
			}
		}
	}
	for c := 0; c < p; c++ {
		a[c*p+c] += ridge
		for k := 0; k < c; k++ {
			a[c*p+k] = a[k*p+c]
		}
	}

	d.ops = d.ops[:0]
	for col := 0; col < p; col++ {
		piv := col
		for r := col + 1; r < p; r++ {
			if math.Abs(a[r*p+col]) > math.Abs(a[piv*p+col]) {
				piv = r
			}
		}
		if math.Abs(a[piv*p+col]) < 1e-300 {
			return false
		}
		d.piv[col] = piv
		if piv != col {
			for c := 0; c < p; c++ {
				a[col*p+c], a[piv*p+c] = a[piv*p+c], a[col*p+c]
			}
		}
		inv := 1 / a[col*p+col]
		for r := col + 1; r < p; r++ {
			f := a[r*p+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < p; c++ {
				a[r*p+c] -= f * a[col*p+c]
			}
			d.ops = append(d.ops, rowOp{col: col, r: r, f: f})
		}
	}
	return true
}

// solve fits target y against the design: it accumulates b = Xᵀy, replays
// the elimination on it, back-substitutes into d.coef and returns the RSE.
// It reports false when the RSE is not finite.
func (d *design) solve(y []float64) (float64, bool) {
	n, p, x, a, b := d.n, d.p, d.x, d.a, d.b
	clear(b)
	for r := 0; r < n; r++ {
		row := x[r*p : (r+1)*p]
		for c := 0; c < p; c++ {
			b[c] += row[c] * y[r]
		}
	}
	k := 0
	for col := 0; col < p; col++ {
		b[col], b[d.piv[col]] = b[d.piv[col]], b[col]
		for ; k < len(d.ops) && d.ops[k].col == col; k++ {
			b[d.ops[k].r] -= d.ops[k].f * b[col]
		}
	}
	beta := d.coef
	for c := p - 1; c >= 0; c-- {
		s := b[c]
		for k := c + 1; k < p; k++ {
			s -= a[c*p+k] * beta[k]
		}
		beta[c] = s / a[c*p+c]
	}

	for r := 0; r < n; r++ {
		d.pred[r] = dot(beta, x[r*p:(r+1)*p])
	}
	rse, err := stats.RSE(y, d.pred, p)
	if err != nil || math.IsNaN(rse) || math.IsInf(rse, 0) {
		return 0, false
	}
	return rse, true
}

// keep records the last solve of candidate (i, j) in m, allocating m on a
// target's first fit, and returns it.
func (d *design) keep(m *Model, groups [][]int, i, j int, rse float64) *Model {
	if m == nil {
		m = &Model{Coef: make([]float64, d.p), Mean: make([]float64, d.p), Std: make([]float64, d.p)}
	}
	m.Groups, m.I, m.J, m.RSE = groups, i, j, rse
	copy(m.Coef, d.coef)
	copy(m.Mean, d.mean)
	copy(m.Std, d.std)
	return m
}

// term is a group's PMNF term for a setting: the product over the group's
// parameters P of P^i · (log2 P + 1)^j. The +1 offset keeps the term
// positive at P = 1, where log2(1) = 0 would annihilate it; the grouping
// stage uses the same convention.
func term(s space.Setting, g []int, i, j int) float64 {
	t := 1.0
	for _, p := range g {
		f := powInt(float64(s[p]), i)
		if j > 0 {
			f *= powInt(log2p1(s[p]), j)
		}
		t *= f
	}
	return t
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// addend is group c's share of a prediction (c = 0 is the intercept): its
// coefficient times its standardized term. The conversion rounds the
// product on its own, so adding the returned value to a running sum rounds
// exactly as adding a stored one does.
func (m *Model) addend(c int, t float64) float64 {
	return float64(m.Coef[c] * ((t - m.Mean[c]) / m.Std[c]))
}

// Predict evaluates the fitted function on a setting. It adds up the same
// products in the same order as the dot product of m.Coef and the
// standardized feature row of s, one group term at a time, so it returns
// the same bits without building the row.
func (m *Model) Predict(s space.Setting) float64 {
	sum := 0.0
	sum += m.Coef[0] * 1
	for gi, g := range m.Groups {
		sum += m.addend(gi+1, term(s, g, m.I, m.J))
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
