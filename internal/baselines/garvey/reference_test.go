package garvey

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// referenceEnumerate lists the cartesian product of the group's raw value
// ranges, as Tune built it before it sampled by index.
func referenceEnumerate(sp *space.Space, group []int) [][]int {
	combos := [][]int{{}}
	for _, p := range group {
		vals := sp.Params[p].Values
		next := make([][]int, 0, len(combos)*len(vals))
		for _, c := range combos {
			for _, v := range vals {
				nc := append(append([]int{}, c...), v)
				next = append(next, nc)
			}
		}
		combos = next
	}
	return combos
}

// referenceSample keeps a uniformly random ratio fraction (at least one
// combo) of combos, as Tune sampled the enumerated product.
func referenceSample(combos [][]int, ratio float64, rng *stats.Rand) [][]int {
	if ratio >= 1 {
		return combos
	}
	n := int(math.Ceil(ratio * float64(len(combos))))
	if n < 1 {
		n = 1
	}
	idx := rng.Perm(len(combos))[:n]
	out := make([][]int, n)
	for i, j := range idx {
		out[i] = combos[j]
	}
	return out
}

// TestSampleMatchesReference requires the decoded sample of every group of
// every Table III stencil's space to be the reference's sampled combos, in
// order, and to leave the generator where the reference left it. The space
// is built per stencil; each GPU's simulator serves the space Tune searches.
func TestSampleMatchesReference(t *testing.T) {
	for _, st := range stencil.Suite() {
		base, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
			sp := sim.New(base, arch).Space()
			for _, seed := range []int64{1, 2, 3, 7} {
				for gi, group := range dimensionGroups() {
					ref, rng := stats.NewRand(seed), stats.NewRand(seed)
					want := referenceSample(referenceEnumerate(sp, group), samplingRatio, ref)
					got := sampleIndices(groupSize(sp, group), rng)
					if len(got) != len(want) {
						t.Fatalf("%s/%s seed %d group %d: %d indices, want %d", st.Name, arch.Name, seed, gi, len(got), len(want))
					}
					s := sp.Default()
					for n, k := range got {
						decode(sp, group, k, s)
						for i, p := range group {
							if s[p] != want[n][i] {
								t.Fatalf("%s/%s seed %d group %d: candidate %d decodes to %v at parameter %d, want %v",
									st.Name, arch.Name, seed, gi, n, s[p], p, want[n])
							}
						}
					}
					if a, b := rng.Float64(), ref.Float64(); a != b {
						t.Fatalf("%s/%s seed %d group %d: next draw %v, want %v", st.Name, arch.Name, seed, gi, a, b)
					}
				}
			}
		}
	}
}
