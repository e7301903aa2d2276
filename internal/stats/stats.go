// Package stats provides the statistical kernels used across the csTuner
// pipeline: coefficient of variation (parameter grouping and approximation
// stopping, paper Eq. 1), Pearson correlation coefficient (metric
// combination, paper Eq. 2), residual standard error (PMNF model selection),
// and small helpers shared by the tuner and the experiment harness.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no observations.
var ErrEmpty = errors.New("stats: empty sample")

// ErrZeroMean is returned by CV when the sample mean is zero, which would
// make the coefficient of variation undefined.
var ErrZeroMean = errors.New("stats: zero mean, CV undefined")

// ErrLength is returned when paired samples have mismatched lengths.
var ErrLength = errors.New("stats: mismatched sample lengths")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance (divisor n) of xs, matching the
// paper's Eq. 1 which uses 1/n.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// CV returns the coefficient of variation sigma/mu (paper Eq. 1). A higher
// CV means a lower correlation between the swept parameter pair, or a less
// converged top-n fitness set in the approximation stop rule.
func CV(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, ErrZeroMean
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return sd / math.Abs(m), nil
}

// PCC returns the Pearson correlation coefficient between paired samples
// (paper Eq. 2). It returns 0 when either sample is constant, treating a
// degenerate metric as uncorrelated rather than failing the pipeline.
func PCC(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLength
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var cov, vx, vy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, nil
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy)), nil
}

// RSE returns the residual standard error of a fit with p estimated
// coefficients: sqrt(RSS / (n - p)). The paper selects PMNF candidate
// functions by minimum RSE because R^2 is only meaningful for linear models.
// When n <= p the fit is saturated and RSE is reported as +Inf so that model
// selection never prefers an under-determined function.
func RSE(observed, predicted []float64, p int) (float64, error) {
	if len(observed) != len(predicted) {
		return 0, ErrLength
	}
	n := len(observed)
	if n == 0 {
		return 0, ErrEmpty
	}
	if n <= p {
		return math.Inf(1), nil
	}
	rss := 0.0
	for i := range observed {
		d := observed[i] - predicted[i]
		rss += d * d
	}
	return math.Sqrt(rss / float64(n-p)), nil
}

// Histogram bins xs into len(edges)-1 bins with half-open intervals
// [edges[i], edges[i+1]), the final bin closed on the right. Values outside
// the edge range are dropped. It returns per-bin counts.
func Histogram(xs []float64, edges []float64) ([]int, error) {
	if len(edges) < 2 {
		return nil, errors.New("stats: need at least two bin edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, errors.New("stats: bin edges must be strictly increasing")
		}
	}
	counts := make([]int, len(edges)-1)
	last := len(counts) - 1
	for _, x := range xs {
		if x < edges[0] || x > edges[len(edges)-1] {
			continue
		}
		if x == edges[len(edges)-1] {
			counts[last]++
			continue
		}
		// Binary search for the containing bin.
		i := sort.SearchFloat64s(edges, x)
		if i < len(edges) && edges[i] == x {
			// Exact edge hit: belongs to the bin starting at that edge.
			counts[i]++
		} else {
			counts[i-1]++
		}
	}
	return counts, nil
}

// Normalize divides each count by the total and returns fractions; an all-
// zero histogram normalizes to all-zero fractions.
func Normalize(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// Log2 returns log2(x). Parameter values in the tuner are >= 1 by
// construction (paper Sec. IV-B starts bool/enum parameters at 1 so the log
// is legitimate); callers must uphold that invariant.
func Log2(x float64) float64 { return math.Log2(x) }

// NextPow2 returns the smallest power of two >= v (v >= 1).
func NextPow2(v int) int {
	if v <= 1 {
		return 1
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Pow2sUpTo returns all powers of two in [1, max].
func Pow2sUpTo(max int) []int {
	var out []int
	for p := 1; p <= max; p <<= 1 {
		out = append(out, p)
	}
	return out
}
