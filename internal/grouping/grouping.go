// Package grouping implements csTuner's parameter-grouping stage (paper
// Sec. IV-C): quantify the pair-wise correlation of optimization parameters
// with the coefficient of variation, then aggregate strongly-correlated
// parameters with Algorithm 1.
package grouping

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/space"
	"repro/internal/stats"
)

// PairCV is the correlation record of one unordered parameter pair.
type PairCV struct {
	A, B int     // parameter indices, A < B
	CV   float64 // lower = stronger correlation
}

// PairCVs computes the CV correlation for every unordered parameter pair
// from the performance dataset.
//
// For the ordered pair (Pi, Pj): sweep the values of Pi observed in the
// dataset; for each value v, take the Pj value of the best-performing sample
// with Pi = v ("the setting of P1 that achieves the best performance with P0
// fixed"); the CV of the log2-transformed best-Pj series quantifies how much
// the optimal Pj moves as Pi changes. Values of Pi absent from the dataset
// are skipped, exactly as the paper prescribes. The unordered pair takes the
// stronger (smaller) of its two directional CVs.
//
// log2 makes power-of-two parameters contribute on a continuous scale; the
// +1 offset keeps the mean strictly positive (every raw value is >= 1) so
// the CV is always defined.
func PairCVs(ds *dataset.Dataset, sp *space.Space) []PairCV {
	n := sp.N()
	out := make([]PairCV, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			cvAB := directionalCV(ds, a, b)
			cvBA := directionalCV(ds, b, a)
			out = append(out, PairCV{A: a, B: b, CV: math.Min(cvAB, cvBA)})
		}
	}
	return out
}

// directionalCV returns the CV of best-Pj values as Pi sweeps, or +Inf when
// fewer than two Pi values are represented in the dataset.
func directionalCV(ds *dataset.Dataset, pi, pj int) float64 {
	// bestByValue[v] = index of the fastest sample with Pi == v.
	bestByValue := make(map[int]int)
	for idx := range ds.Samples {
		v := ds.Samples[idx].Setting[pi]
		cur, ok := bestByValue[v]
		if !ok || ds.Samples[idx].TimeMS < ds.Samples[cur].TimeMS {
			bestByValue[v] = idx
		}
	}
	if len(bestByValue) < 2 {
		return math.Inf(1)
	}
	// Iterate Pi values in sorted order: CV's floating-point sums depend on
	// operand order, so ranging the map directly would let Go's randomized
	// iteration order perturb the CV in the last bits — enough to reorder
	// near-tied pairs in Groups and change the final grouping between runs.
	piVals := make([]int, 0, len(bestByValue))
	for v := range bestByValue {
		piVals = append(piVals, v)
	}
	sort.Ints(piVals)
	series := make([]float64, 0, len(bestByValue))
	for _, v := range piVals {
		series = append(series, stats.Log2(float64(ds.Samples[bestByValue[v]].Setting[pj]))+1)
	}
	cv, err := stats.CV(series)
	if err != nil {
		// A zero mean cannot happen with the +1 offset; any other error
		// means an empty series, which the length guard already excludes.
		return math.Inf(1)
	}
	return cv
}

// Groups runs Algorithm 1: pairs are sorted in ascending CV order, then
// consumed alternately from the front (strongest remaining correlation —
// creates or extends groups) and the back (weakest remaining — its
// parameters become singleton groups if still ungrouped).
//
// The alternation is the algorithm's point: strong pairs aggregate early,
// while weak pairs retire their parameters as singletons before a mediocre
// correlation can attach them to an existing group. (The paper's printed
// pseudocode swaps the two branch bodies and contains obvious typos — e.g.
// "ftPara.append([ftPara])" — so this implements the stated intent.)
//
// maxGroupSize caps how many parameters a single group may absorb; the PMNF
// product term grows with group size, and the paper notes SOTA modeling
// tools support at most four parameters per multi-parameter term. <=0 means
// a cap of 4.
func Groups(pairs []PairCV, maxGroupSize int) [][]int {
	if maxGroupSize <= 0 {
		maxGroupSize = 4
	}
	sorted := append([]PairCV(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].CV < sorted[j].CV })

	var groups [][]int
	find := func(p int) int {
		for gi, g := range groups {
			for _, q := range g {
				if q == p {
					return gi
				}
			}
		}
		return -1
	}

	// sorted[lo:hi] holds the pairs not yet consumed.
	for i, lo, hi := 0, 0, len(sorted); lo < hi; i++ {
		if i%2 == 0 {
			// Strongest remaining pair: group it.
			pair := sorted[lo]
			lo++
			ga, gb := find(pair.A), find(pair.B)
			switch {
			case ga < 0 && gb < 0:
				groups = append(groups, []int{pair.A, pair.B})
			case ga >= 0 && gb >= 0:
				// both already grouped: skip
			case ga >= 0:
				if len(groups[ga]) < maxGroupSize {
					groups[ga] = append(groups[ga], pair.B)
				} else {
					groups = append(groups, []int{pair.B})
				}
			default:
				if len(groups[gb]) < maxGroupSize {
					groups[gb] = append(groups[gb], pair.A)
				} else {
					groups = append(groups, []int{pair.A})
				}
			}
		} else {
			// Weakest remaining pair: retire its parameters as singletons.
			hi--
			pair := sorted[hi]
			if find(pair.A) < 0 {
				groups = append(groups, []int{pair.A})
			}
			if find(pair.B) < 0 {
				groups = append(groups, []int{pair.B})
			}
		}
	}
	return groups
}

// Validate checks that groups form a partition of all n parameters.
func ValidateN(groups [][]int, n int) error {
	seen := make(map[int]bool, n)
	for _, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("grouping: empty group")
		}
		for _, p := range g {
			if p < 0 || p >= n {
				return fmt.Errorf("grouping: parameter index %d out of range", p)
			}
			if seen[p] {
				return fmt.Errorf("grouping: parameter %d appears twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != n {
		return fmt.Errorf("grouping: %d/%d parameters covered", len(seen), n)
	}
	return nil
}

// Validate checks a partition of the Table I stencil space.
func Validate(groups [][]int) error { return ValidateN(groups, space.NumParams) }

// Format renders groups with the Table I parameter names.
func Format(groups [][]int) string { return FormatWith(groups, space.ParamNames()) }

// FormatWith renders groups with caller-supplied parameter names.
func FormatWith(groups [][]int, names []string) string {
	out := ""
	for gi, g := range groups {
		if gi > 0 {
			out += " | "
		}
		for i, p := range g {
			if i > 0 {
				out += ","
			}
			out += names[p]
		}
	}
	return out
}
