package forest

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, DefaultOptions()); err == nil {
		t.Fatal("empty data should error")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, DefaultOptions()); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, DefaultOptions()); err == nil {
		t.Fatal("zero features should error")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []float64{1, 2}, DefaultOptions()); err == nil {
		t.Fatal("ragged rows should error")
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y := []float64{5, 5, 5, 5}
	f, err := Train(x, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Predict([]float64{2, 3})
	if err != nil || math.Abs(p-5) > 1e-9 {
		t.Fatalf("Predict = %v, %v", p, err)
	}
}

func TestLearnsStepFunction(t *testing.T) {
	rng := stats.NewRand(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		x = append(x, []float64{a, b})
		if a > 5 {
			y = append(y, 10)
		} else {
			y = append(y, 2)
		}
	}
	opt := DefaultOptions()
	f, err := Train(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := f.Predict([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := f.Predict([]float64{8, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-2) > 1 || math.Abs(hi-10) > 1 {
		t.Fatalf("step function not learned: lo=%v hi=%v", lo, hi)
	}
}

func TestLearnsInteraction(t *testing.T) {
	// y = a*b needs splits on both features.
	rng := stats.NewRand(4)
	var x [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a := rng.Float64() * 4
		b := rng.Float64() * 4
		x = append(x, []float64{a, b})
		y = append(y, a*b)
	}
	opt := DefaultOptions()
	opt.MaxDepth = 10
	opt.FeatureFrac = 1
	f, err := Train(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Mean absolute error over a probe grid must beat the constant
	// predictor by a wide margin.
	meanY := 4.0 // E[a*b] for U(0,4)² is 4
	var mae, constMAE float64
	n := 0
	for a := 0.25; a < 4; a += 0.75 {
		for b := 0.25; b < 4; b += 0.75 {
			p, err := f.Predict([]float64{a, b})
			if err != nil {
				t.Fatal(err)
			}
			mae += math.Abs(p - a*b)
			constMAE += math.Abs(meanY - a*b)
			n++
		}
	}
	if mae >= constMAE*0.5 {
		t.Fatalf("forest MAE %.3f not clearly better than constant %.3f", mae/float64(n), constMAE/float64(n))
	}
}

func TestPredictValidation(t *testing.T) {
	f, err := Train([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, []float64{1, 2, 3, 4}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Predict([]float64{1}); err == nil {
		t.Fatal("wrong feature count should error")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {2, 2}, {6, 1}}
	y := []float64{1, 2, 3, 4, 1.5, 3.5}
	a, err := Train(x, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range x {
		pa, _ := a.Predict(probe)
		pb, _ := b.Predict(probe)
		if pa != pb {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestOptionDefaultsApplied(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	f, err := Train(x, y, Options{}) // all zero: defaults kick in
	if err != nil {
		t.Fatal(err)
	}
	if len(f.trees) != 50 {
		t.Fatalf("default tree count = %d, want 50", len(f.trees))
	}
}

// BenchmarkTrain trains the default forest on two shapes: 128 rows of 19
// continuous features, and 64 rows of 19 columns that each take two to four
// powers of two, so a node's columns hold few distinct values. Garvey's own
// dataset columns hold two to nine; BenchmarkPredictMemoryType
// (internal/baselines/garvey) trains on that.
func BenchmarkTrain(b *testing.B) {
	rng := stats.NewRand(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 128; i++ {
		row := make([]float64, 19)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		x = append(x, row)
		y = append(y, rng.Float64())
	}
	b.Run("continuous128", func(b *testing.B) { benchTrain(b, x, y) })

	rng = stats.NewRand(2)
	weight := make([]float64, 19)
	for j := range weight {
		weight[j] = rng.Float64()
	}
	var gx [][]float64
	var gy []float64
	for i := 0; i < 64; i++ {
		row := make([]float64, 19)
		ms := 1.0
		for j := range row {
			e := rng.Intn(2 + j%3)
			row[j] = float64(int(1) << e)
			ms += weight[j] * float64(e)
		}
		gx = append(gx, row)
		gy = append(gy, ms+0.1*rng.Float64())
	}
	b.Run("garvey64", func(b *testing.B) { benchTrain(b, gx, gy) })
}

func benchTrain(b *testing.B, x [][]float64, y []float64) {
	opt := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, opt); err != nil {
			b.Fatal(err)
		}
	}
}
