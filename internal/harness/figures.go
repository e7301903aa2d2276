package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/space"
	"repro/internal/stats"
)

// MotivationSample holds the random-sampling study shared by Figs. 2–4.
type MotivationSample struct {
	Stencil  string
	Times    []float64 // measured kernel times, one per valid sampled setting
	Settings []space.Setting
	BestMS   float64
}

// CollectMotivation randomly samples n valid settings of the fixture's
// stencil and measures them one at a time (paper Sec. III samples >20,000
// per stencil; the sample size is a knob so tests stay fast).
func CollectMotivation(fx *Fixture, n int, seed int64) (*MotivationSample, error) {
	ds, err := dataset.Collect(fx.Sim, stats.NewRand(seed), n)
	if err != nil {
		return nil, fmt.Errorf("harness: motivation sample: %w", err)
	}
	ms := &MotivationSample{Stencil: fx.Stencil.Name, Times: ds.Times(), BestMS: ds.Best().TimeMS}
	for _, smp := range ds.Samples {
		ms.Settings = append(ms.Settings, smp.Setting)
	}
	return ms, nil
}

// Fig2Bins returns the five-bin speedup-over-optimum distribution
// (fractions, bins [0,0.2) … [0.8,1.0]) of the sample — Figure 2.
func Fig2Bins(ms *MotivationSample) ([]float64, error) {
	speedups := make([]float64, len(ms.Times))
	for i, t := range ms.Times {
		speedups[i] = ms.BestMS / t
	}
	edges := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0000001}
	counts, err := stats.Histogram(speedups, edges)
	if err != nil {
		return nil, err
	}
	return stats.Normalize(counts), nil
}

// Fig3Bins returns the five-bin distribution of parameter-pair disagreement
// percentages — Figure 3. For every ordered parameter pair (Pi, Pj), each
// observed value v of Pi contributes a disagreement when the Pj value of
// the best sampled setting with Pi=v differs from the global optimum's Pj;
// the pair's percentage is the disagreeing fraction. Pairs are then binned
// into [0,0.2) … [0.8,1.0].
func Fig3Bins(ms *MotivationSample) ([]float64, float64, error) {
	bestIdx := 0
	for i, t := range ms.Times {
		if t < ms.Times[bestIdx] {
			bestIdx = i
		}
	}
	opt := ms.Settings[bestIdx]

	var pcts []float64
	n := space.NumParams
	for pi := 0; pi < n; pi++ {
		for pj := 0; pj < n; pj++ {
			if pi == pj {
				continue
			}
			bestByV := map[int]int{}
			for k := range ms.Settings {
				v := ms.Settings[k][pi]
				cur, ok := bestByV[v]
				if !ok || ms.Times[k] < ms.Times[cur] {
					bestByV[v] = k
				}
			}
			if len(bestByV) < 2 {
				continue
			}
			disagree := 0
			for _, k := range bestByV {
				if ms.Settings[k][pj] != opt[pj] {
					disagree++
				}
			}
			pcts = append(pcts, float64(disagree)/float64(len(bestByV)))
		}
	}
	edges := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0000001}
	counts, err := stats.Histogram(pcts, edges)
	if err != nil {
		return nil, 0, err
	}
	mean, err := stats.Mean(pcts)
	if err != nil {
		return nil, 0, err
	}
	return stats.Normalize(counts), mean, nil
}

// Fig4TopN returns the speedup of the n-th best sampled setting over the
// optimum for each requested n — Figure 4 (paper reports n = 10, 50, 100).
func Fig4TopN(ms *MotivationSample, ns []int) ([]float64, error) {
	sorted := append([]float64(nil), ms.Times...)
	sort.Float64s(sorted)
	out := make([]float64, len(ns))
	for i, n := range ns {
		if n < 1 || n > len(sorted) {
			return nil, fmt.Errorf("harness: top-%d outside sample of %d", n, len(sorted))
		}
		out[i] = sorted[0] / sorted[n-1]
	}
	return out, nil
}

// FormatBins renders a bin row like the paper's stacked bars.
func FormatBins(label string, bins []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s", label)
	names := []string{"[0,0.2)", "[0.2,0.4)", "[0.4,0.6)", "[0.6,0.8)", "[0.8,1.0]"}
	for i, v := range bins {
		fmt.Fprintf(&b, "  %s=%5.1f%%", names[i], 100*v)
	}
	return b.String()
}
