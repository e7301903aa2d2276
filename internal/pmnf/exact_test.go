package pmnf

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// groupsAndSelected runs the grouping and metric-selection stages a tune
// runs before fitting.
func groupsAndSelected(tb testing.TB, ds *dataset.Dataset, sp *space.Space) ([][]int, []metrics.Selected) {
	tb.Helper()
	groups := grouping.Groups(grouping.PairCVs(ds, sp), 4)
	pairs, err := metrics.PairPCCs(ds, sim.MetricNames())
	if err != nil {
		tb.Fatal(err)
	}
	sel, err := metrics.Select(ds, metrics.Combine(pairs, 4))
	if err != nil {
		tb.Fatal(err)
	}
	return groups, sel
}

func metricColumns(tb testing.TB, ds *dataset.Dataset, sel []metrics.Selected) [][]float64 {
	tb.Helper()
	cols := make([][]float64, len(sel))
	for k, m := range sel {
		col, err := ds.MetricColumn(m.Name)
		if err != nil {
			tb.Fatal(err)
		}
		cols[k] = col
	}
	return cols
}

// forEachTune calls visit with the dataset, groups and selected metrics of
// a 64-sample tune of every Table III stencil on the A100 and the V100 at
// seeds 1 and 2.
func forEachTune(t *testing.T, visit func(name string, sp *space.Space, ds *dataset.Dataset, groups [][]int, sel []metrics.Selected)) {
	t.Helper()
	for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
		for _, st := range stencil.Suite() {
			for seed := int64(1); seed <= 2; seed++ {
				sp, err := space.New(st)
				if err != nil {
					t.Fatal(err)
				}
				ds, err := dataset.Collect(sim.New(sp, arch), stats.NewRand(seed), 64)
				if err != nil {
					t.Fatal(err)
				}
				groups, sel := groupsAndSelected(t, ds, sp)
				visit(fmt.Sprintf("%s/%s/seed%d", st.Name, arch.Name, seed), sp, ds, groups, sel)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFitMatchesPerTargetReference fits every selected metric of real tunes
// in one Fit call and checks each model against the per-target reference
// fit, bit for bit.
func TestFitMatchesPerTargetReference(t *testing.T) {
	forEachTune(t, func(name string, _ *space.Space, ds *dataset.Dataset, groups [][]int, sel []metrics.Selected) {
		cols := metricColumns(t, ds, sel)
		models, err := Fit(ds, groups, cols)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, col := range cols {
			got := models[k]
			want, err := referenceFit(ds, groups, col)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", name, sel[k].Name, err)
			}
			if got.I != want.I || got.J != want.J ||
				math.Float64bits(got.RSE) != math.Float64bits(want.RSE) ||
				!sameBits(got.Coef, want.Coef) || !sameBits(got.Mean, want.Mean) || !sameBits(got.Std, want.Std) {
				t.Fatalf("%s %s: Fit gave %v coef %v mean %v std %v, reference %v coef %v mean %v std %v",
					name, sel[k].Name, got, got.Coef, got.Mean, got.Std, want, want.Coef, want.Mean, want.Std)
			}
			for l := range k {
				if &models[l].Coef[0] == &got.Coef[0] || &models[l].Mean[0] == &got.Mean[0] {
					t.Fatalf("%s: models %d and %d share a slice", name, l, k)
				}
			}
		}
	})
}

// TestPoolPredictMatchesPredict scores pools against fitted models and
// checks every prediction against Model.Predict, bit for bit, on both
// paths: groups coded into tables, and groups scored candidate by
// candidate because their code range outgrows the pool. One pool holds a
// value outside its parameter's Param.Values, which takes a code after
// theirs.
func TestPoolPredictMatchesPredict(t *testing.T) {
	sp, err := space.New(stencil.Hypterm())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Collect(sim.New(sp, gpu.A100()), stats.NewRand(3), 96)
	if err != nil {
		t.Fatal(err)
	}
	groups, sel := groupsAndSelected(t, ds, sp)
	// One wide group whose code range (11·11·7·11 values) exceeds any pool
	// below, and the parameter of the value outside its list alone.
	groups = append(groups, []int{space.TBX, space.TBY, space.TBZ, space.SB}, []int{space.UFY})
	models, err := Fit(ds, groups, metricColumns(t, ds, sel))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(4)
	var settings []space.Setting
	for range 2000 {
		settings = append(settings, sp.Random(rng))
	}
	odd := sp.Default()
	odd[space.UFY] = 3 // not a power of two: Param.Index cannot place it

	for _, tc := range []struct {
		name     string
		settings []space.Setting
		perSet   []int // groups that must be scored candidate by candidate
	}{
		{"random", settings, []int{len(groups) - 2}},
		{"unplaceable", append(settings[:500:500], odd), []int{len(groups) - 2}},
		{"small", settings[:6], nil},
	} {
		coded := sp.NewCoded(len(tc.settings))
		var held []space.Setting // the settings in the pool, repeats dropped
		for _, s := range tc.settings {
			if added, err := coded.Add(s); err != nil {
				t.Fatal(err)
			} else if added {
				held = append(held, s)
			}
		}
		pool := NewPool(coded, groups)
		for _, g := range tc.perSet {
			if pool.tuple[g] != nil {
				t.Fatalf("%s: group %d %v has a table, want candidate-by-candidate scoring", tc.name, g, groups[g])
			}
		}
		dense := 0
		for g := range groups {
			if pool.tuple[g] != nil {
				dense++
			}
		}
		if tc.name != "small" && dense == 0 {
			t.Fatalf("%s: no group has a table", tc.name)
		}
		if tc.name == "unplaceable" && pool.tuple[len(groups)-1] == nil {
			t.Fatalf("%s: the extended group has no table", tc.name)
		}
		out := make([]float64, len(held))
		for _, m := range models {
			pool.Predict(m, out)
			for i, s := range held {
				if want := m.Predict(s); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s: %v on setting %d = %v, Predict %v", tc.name, m, i, out[i], want)
				}
			}
		}
	}
}
