// Package metrics implements csTuner's metric-combination stage (paper
// Sec. IV-D, Algorithm 2): GPU metrics collected with the profiler are too
// numerous to model individually, so pair-wise Pearson-correlated metrics
// are combined into collections, and one representative per collection —
// the metric most correlated with execution time — feeds the PMNF
// performance models.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// PairPCC records the absolute Pearson correlation of one metric pair.
type PairPCC struct {
	A, B string
	PCC  float64 // |r|, higher = stronger linear correlation
}

// PairPCCs computes |PCC| for every unordered pair of the named metrics
// over the dataset. Metrics missing from any sample cause an error.
func PairPCCs(ds *dataset.Dataset, names []string) ([]PairPCC, error) {
	cols := make(map[string][]float64, len(names))
	for _, n := range names {
		c, err := ds.MetricColumn(n)
		if err != nil {
			return nil, err
		}
		cols[n] = c
	}
	var out []PairPCC
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			r, err := stats.PCC(cols[names[i]], cols[names[j]])
			if err != nil {
				return nil, fmt.Errorf("metrics: PCC(%s,%s): %w", names[i], names[j], err)
			}
			out = append(out, PairPCC{A: names[i], B: names[j], PCC: math.Abs(r)})
		}
	}
	return out, nil
}

// Combine runs Algorithm 2: metric pairs are sorted in ascending |PCC|
// order and consumed from the back (most correlated first).
// A pair with both metrics unseen opens a new collection while fewer than
// numCollections exist; a pair bridging a collection and an unseen metric
// merges the metric into that collection; pairs inside existing collections
// are skipped. Metrics never absorbed (pairs exhausted while collections
// were full) are appended as singleton collections so every metric remains
// addressable downstream.
func Combine(pairs []PairPCC, numCollections int) [][]string {
	if numCollections <= 0 {
		numCollections = 4
	}
	sorted := append([]PairPCC(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PCC < sorted[j].PCC })

	all := map[string]bool{}
	for _, p := range sorted {
		all[p.A] = true
		all[p.B] = true
	}

	var collections [][]string
	find := func(m string) int {
		for ci, c := range collections {
			for _, x := range c {
				if x == m {
					return ci
				}
			}
		}
		return -1
	}

	for i := len(sorted) - 1; i >= 0; i-- {
		pair := sorted[i]
		ca, cb := find(pair.A), find(pair.B)
		switch {
		case ca < 0 && cb < 0:
			if len(collections) < numCollections {
				collections = append(collections, []string{pair.A, pair.B})
			}
		case ca >= 0 && cb >= 0:
			// both placed: skip
		case ca >= 0:
			collections[ca] = append(collections[ca], pair.B)
		default:
			collections[cb] = append(collections[cb], pair.A)
		}
	}

	// Orphans (possible when collections filled before their pairs
	// surfaced) become singletons.
	for m := range all {
		if find(m) < 0 {
			collections = append(collections, []string{m})
		}
	}
	sort.Slice(collections, func(i, j int) bool { return collections[i][0] < collections[j][0] })
	return collections
}

// Selected is one representative metric chosen for performance modeling.
type Selected struct {
	Name    string
	TimePCC float64 // signed correlation with execution time
}

// Select picks, from every collection, the metric with the highest |PCC|
// against execution time, reporting the signed correlation (the sign decides
// which side of the metric's distribution is "good" during sampling).
func Select(ds *dataset.Dataset, collections [][]string) ([]Selected, error) {
	times := ds.Times()
	var out []Selected
	for _, c := range collections {
		best := ""
		bestAbs := -1.0
		bestSigned := 0.0
		for _, name := range c {
			col, err := ds.MetricColumn(name)
			if err != nil {
				return nil, err
			}
			r, err := stats.PCC(col, times)
			if err != nil {
				return nil, err
			}
			if a := math.Abs(r); a > bestAbs {
				best, bestAbs, bestSigned = name, a, r
			}
		}
		if best != "" {
			out = append(out, Selected{Name: best, TimePCC: bestSigned})
		}
	}
	return out, nil
}
