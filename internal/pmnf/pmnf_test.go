package pmnf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func TestLstsqExact(t *testing.T) {
	// y = 3 + 2a - b, solvable exactly.
	x := [][]float64{
		{1, 1, 0}, {1, 2, 1}, {1, 3, 2}, {1, 0, 5}, {1, 4, 4},
	}
	y := make([]float64, len(x))
	for i, r := range x {
		y[i] = 3 + 2*r[1] - r[2]
	}
	beta, err := lstsq(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-9 {
			t.Fatalf("beta = %v, want %v", beta, want)
		}
	}
}

func TestLstsqOverdetermined(t *testing.T) {
	// Noisy line: slope must come out close.
	rng := stats.NewRand(5)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := rng.Float64() * 10
		x = append(x, []float64{1, v})
		y = append(y, 1.5+0.7*v+0.01*(rng.Float64()-0.5))
	}
	beta, err := lstsq(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-1.5) > 0.05 || math.Abs(beta[1]-0.7) > 0.01 {
		t.Fatalf("beta = %v", beta)
	}
}

func TestLstsqDegenerate(t *testing.T) {
	if _, err := lstsq(nil, nil, 0); err == nil {
		t.Fatal("empty design should error")
	}
	if _, err := lstsq([][]float64{{}}, []float64{1}, 0); err == nil {
		t.Fatal("zero features should error")
	}
	if _, err := lstsq([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("ragged matrix should error")
	}
	// Perfectly collinear columns: ridge rescues the solve.
	x := [][]float64{{1, 2, 4}, {1, 3, 6}, {1, 4, 8}}
	if _, err := lstsq(x, []float64{1, 2, 3}, 1e-8); err != nil {
		t.Fatalf("ridge should handle collinearity: %v", err)
	}
	// Without ridge, all-zero columns are singular.
	z := [][]float64{{0, 0}, {0, 0}}
	if _, err := lstsq(z, []float64{1, 2}, 0); err == nil {
		t.Fatal("singular system without ridge should error")
	}
}

// synthDataset builds a dataset whose target is an exact PMNF function, so
// Fit must recover it with near-zero RSE and the right exponents.
func synthDataset(t *testing.T, groups [][]int, i, j int, rng *stats.Rand) (*dataset.Dataset, []float64) {
	t.Helper()
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{Stencil: "synthetic"}
	var target []float64
	coefs := []float64{5, 2.0, -1.0, 0.5, 3, 1, 1, 1, 1, 1}
	for n := 0; n < 96; n++ {
		set := sp.Random(rng)
		row := featureRow(set, groups, i, j)
		y := 0.0
		for k, f := range row {
			y += coefs[k%len(coefs)] * f
		}
		ds.Samples = append(ds.Samples, dataset.Sample{Setting: set, TimeMS: 1})
		target = append(target, y)
	}
	return ds, target
}

func TestFitRecoversSyntheticFunction(t *testing.T) {
	groups := [][]int{{space.TBX, space.TBY}, {space.UFX}, {space.UseShared}}
	// Cover the remaining parameters as singletons so groups partition the
	// space is not required by Fit — it only reads the listed groups.
	rng := stats.NewRand(77)
	for _, exp := range []struct{ i, j int }{{1, 0}, {2, 0}, {1, 1}, {0, 1}} {
		ds, target := synthDataset(t, groups, exp.i, exp.j, rng)
		ms, err := Fit(ds, groups, [][]float64{target})
		if err != nil {
			t.Fatalf("(i=%d,j=%d): %v", exp.i, exp.j, err)
		}
		m := ms[0]
		if m.I != exp.i || m.J != exp.j {
			t.Errorf("recovered (i=%d,j=%d), want (%d,%d); RSE=%g", m.I, m.J, exp.i, exp.j, m.RSE)
		}
		if m.RSE > 1e-6*math.Max(1, math.Abs(target[0])) {
			t.Errorf("(i=%d,j=%d): RSE %g not near zero", exp.i, exp.j, m.RSE)
		}
	}
}

func TestPredictMatchesTraining(t *testing.T) {
	groups := [][]int{{space.TBX}, {space.UFY, space.BMY}}
	rng := stats.NewRand(13)
	ds, target := synthDataset(t, groups, 1, 1, rng)
	ms, err := Fit(ds, groups, [][]float64{target})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	for k := 0; k < 10; k++ {
		got := m.Predict(ds.Samples[k].Setting)
		if math.Abs(got-target[k]) > 1e-6*(1+math.Abs(target[k])) {
			t.Fatalf("Predict[%d] = %v, want %v", k, got, target[k])
		}
	}
}

// rowPredict is the row formula Predict must reproduce bit for bit: the
// standardized feature row dotted with the coefficients.
func rowPredict(m *Model, s space.Setting) float64 {
	row := featureRow(s, m.Groups, m.I, m.J)
	for c := 1; c < len(row); c++ {
		row[c] = (row[c] - m.Mean[c]) / m.Std[c]
	}
	return dot(m.Coef, row)
}

// TestPredictBitIdentical checks Predict against the row formula under
// math.Float64bits for every exponent pair in {0..3}×{0..2}, including the
// math.Pow fallback at i = 3, on both fitted and randomly drawn models.
func TestPredictBitIdentical(t *testing.T) {
	groups := [][]int{
		{space.TBX, space.TBY, space.TBZ}, {space.UFX, space.BMX}, {space.UFY, space.BMY},
		{space.UFZ, space.BMZ}, {space.UseShared, space.UseStreaming}, {space.SB, space.SD},
		{space.CMX, space.CMY, space.CMZ}, {space.UseConstant}, {space.UseRetiming},
	}
	rng, norm := stats.NewRand(21), rand.New(rand.NewSource(21))
	ds, target := synthDataset(t, groups, 1, 1, rng)
	sp, err := space.New(stencil.Hypterm())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 3; i++ {
		for j := 0; j <= 2; j++ {
			models := []*Model{{Groups: groups, I: i, J: j}}
			m := models[0]
			for c := 0; c <= len(groups); c++ {
				m.Coef = append(m.Coef, norm.NormFloat64()*100)
				m.Mean = append(m.Mean, norm.NormFloat64()*1000)
				m.Std = append(m.Std, math.Exp(norm.NormFloat64()*5))
			}
			if fitted, err := fitOne(ds, groups, target, i, j); err == nil {
				models = append(models, fitted)
			}
			for _, m := range models {
				for n := 0; n < 200; n++ {
					s := sp.Random(rng)
					got, want := m.Predict(s), rowPredict(m, s)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("(i=%d,j=%d) %s: Predict = %v (%#x), row formula %v (%#x)",
							i, j, s.Key(), got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestPredictAllocs(t *testing.T) {
	groups := [][]int{{space.TBX, space.TBY}, {space.UFX}, {space.UseShared}}
	rng := stats.NewRand(3)
	ds, target := synthDataset(t, groups, 2, 1, rng)
	ms, err := Fit(ds, groups, [][]float64{target})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	s := ds.Samples[0].Setting
	if n := testing.AllocsPerRun(100, func() { _ = m.Predict(s) }); n != 0 {
		t.Fatalf("Predict allocates %v times per call, want 0", n)
	}
}

func TestFitOnSimulatorMetrics(t *testing.T) {
	// End-to-end: fit occupancy from a real simulated dataset; the model
	// must beat the trivial constant predictor.
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(31), 96)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]int{
		{space.TBX, space.TBY, space.TBZ},
		{space.UFX, space.BMX},
		{space.UFY, space.BMY},
		{space.UFZ, space.BMZ},
		{space.UseShared, space.UseStreaming},
		{space.SB, space.SD},
		{space.CMX, space.CMY, space.CMZ},
		{space.UseConstant}, {space.UseRetiming}, {space.UsePrefetching},
	}
	col, err := ds.MetricColumn("sm__occupancy_achieved")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Fit(ds, groups, [][]float64{col})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	// Constant-predictor RSE = stddev-ish; the fit must improve on it.
	mean := 0.0
	for _, v := range col {
		mean += v
	}
	mean /= float64(len(col))
	rss := 0.0
	for _, v := range col {
		rss += (v - mean) * (v - mean)
	}
	constRSE := math.Sqrt(rss / float64(len(col)-1))
	if m.RSE >= constRSE {
		t.Fatalf("PMNF RSE %g no better than constant predictor %g", m.RSE, constRSE)
	}
}

func TestFitErrors(t *testing.T) {
	sp, _ := space.New(stencil.J3D7PT())
	ds := &dataset.Dataset{}
	if _, err := Fit(ds, [][]int{{0}}, [][]float64{nil}); err == nil {
		t.Fatal("empty dataset should error")
	}
	rng := stats.NewRand(1)
	ds.Samples = append(ds.Samples, dataset.Sample{Setting: sp.Random(rng), TimeMS: 1})
	if _, err := Fit(ds, [][]int{{0}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("target length mismatch should error")
	}
	if _, err := Fit(ds, [][]int{{0}}, nil); err == nil {
		t.Fatal("no targets should error")
	}

	// A target no candidate fits is named by its index; a fittable target
	// before it does not hide it.
	groups := [][]int{{space.TBX, space.TBY}, {space.UFX}}
	ds, target := synthDataset(t, groups, 1, 0, rng)
	bad := append([]float64(nil), target...)
	bad[3] = math.NaN()
	_, err := Fit(ds, groups, [][]float64{target, bad})
	var te *TargetError
	if !errors.As(err, &te) || te.Target != 1 {
		t.Fatalf("Fit with a NaN second target: %v, want a TargetError for target 1", err)
	}
}

func TestModelString(t *testing.T) {
	m := &Model{I: 2, J: 1, Groups: [][]int{{0}}, RSE: 0.5}
	if s := m.String(); s == "" {
		t.Fatal("empty String")
	}
}

// BenchmarkFit fits cheby/a100 models on a 128-sample dataset: kernel time
// over three groups, and the metrics metrics.Select picks over the grouping
// stage's groups, the fit a tune makes.
func BenchmarkFit(b *testing.B) {
	sp, err := space.New(stencil.Cheby())
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(1), 128)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("time", func(b *testing.B) {
		groups := [][]int{
			{space.TBX, space.TBY}, {space.UFX, space.BMX}, {space.UseShared, space.UseStreaming},
		}
		targets := [][]float64{ds.Times()}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Fit(ds, groups, targets); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("selected", func(b *testing.B) {
		groups, sel := groupsAndSelected(b, ds, sp)
		targets := metricColumns(b, ds, sel)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Fit(ds, groups, targets); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestLog2p1MatchesLog2 pins the lookup table, and the fallback past its
// end, to the stats.Log2 call it replaces in Predict.
func TestLog2p1MatchesLog2(t *testing.T) {
	for v := -2; v <= 3*len(log2p1Table); v++ {
		got, want := log2p1(v), stats.Log2(float64(v))+1
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("log2p1(%d) = %v, want %v", v, got, want)
		}
	}
}
