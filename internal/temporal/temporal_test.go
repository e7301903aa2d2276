package temporal

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func workload(t testing.TB) *Workload {
	t.Helper()
	w, err := New(stencil.J3D7PT(), gpu.A100(), 128)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, gpu.A100(), 10); err == nil {
		t.Fatal("nil stencil should error")
	}
	if _, err := New(stencil.J3D7PT(), nil, 10); err == nil {
		t.Fatal("nil arch should error")
	}
	if _, err := New(stencil.J3D7PT(), gpu.A100(), 0); err == nil {
		t.Fatal("zero steps should error")
	}
	bad := stencil.J3D7PT()
	bad.FLOPs = 0
	if _, err := New(bad, gpu.A100(), 10); err == nil {
		t.Fatal("invalid stencil should error")
	}
}

func TestDefaultMeasurable(t *testing.T) {
	w := workload(t)
	set := w.Space().Default()
	if err := w.Space().Validate(set); err != nil {
		t.Fatal(err)
	}
	ms, err := w.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	// 128 launches of a ~1.4 ms memory-bound sweep: O(200 ms).
	if ms < 50 || ms > 2000 {
		t.Fatalf("default time %.1f ms implausible", ms)
	}
}

func TestExplicitConstraints(t *testing.T) {
	w := workload(t)
	sp := w.Space()
	s := sp.Default()
	s[TBX], s[TBY] = 256, 32 // 8192 threads
	if err := sp.Validate(s); err == nil {
		t.Fatal("oversized block accepted")
	}
	s = sp.Default()
	s[TBX], s[TBY] = 4, 2
	if err := sp.Validate(s); err == nil {
		t.Fatal("sub-warp block accepted")
	}
	s = sp.Default()
	s[Degree] = 8
	s[TileZ] = 16 // needs > 2*1*8 = 16
	if err := sp.Validate(s); err == nil {
		t.Fatal("trapezoid deeper than tile accepted")
	}
}

func TestRandomValid(t *testing.T) {
	w := workload(t)
	rng := stats.NewRand(5)
	degreesSeen := map[int]bool{}
	for i := 0; i < 300; i++ {
		s := w.Space().Random(rng)
		if err := w.Space().Validate(s); err != nil {
			t.Fatalf("invalid random setting: %v", err)
		}
		degreesSeen[s[Degree]] = true
	}
	if len(degreesSeen) < 3 {
		t.Fatalf("sampling covers only degrees %v", degreesSeen)
	}
}

// TestTemporalBlockingPaysOnMemoryBound is the physics of the extension: a
// memory-bound order-1 stencil must gain from temporal blocking, because
// DRAM traffic divides by the degree while the trapezoid overhead stays
// modest at low order.
func TestTemporalBlockingPaysOnMemoryBound(t *testing.T) {
	w := workload(t)
	w.NoiseAmp = 0
	sp := w.Space()
	base := sp.Default() // degree 1
	blocked := base.Clone()
	blocked[Degree] = 4
	blocked[TileZ] = 64
	tb1, err := w.Measure(base)
	if err != nil {
		t.Fatal(err)
	}
	tb4, err := w.Measure(blocked)
	if err != nil {
		t.Fatal(err)
	}
	if tb4 >= tb1 {
		t.Fatalf("degree 4 (%.1f ms) should beat degree 1 (%.1f ms) on j3d7pt", tb4, tb1)
	}
}

// TestHighOrderLimitsDegree: the stencil order limits how deep temporal
// blocking pays. At TileZ 128 on the A100 (no noise), degree 1 measures on
// hypterm, and its order-4 trapezoid makes degrees 2 and 8 either
// rejected (both spill registers today) or no faster than degree 1. On the
// order-1 j3d7pt at the same tile, degree 2 beats degree 1.
func TestHighOrderLimitsDegree(t *testing.T) {
	// measure reports whether deg survives Repair at TileZ 128, and its time.
	measure := func(st *stencil.Stencil, deg int) (bool, float64, error) {
		w, err := New(st, gpu.A100(), 128)
		if err != nil {
			t.Fatal(err)
		}
		w.NoiseAmp = 0
		s := w.Space().Default()
		s[Degree], s[TileZ] = deg, 128
		w.Space().Repair(s, nil)
		if s[Degree] != deg {
			return false, 0, nil
		}
		ms, err := w.Measure(s)
		return true, ms, err
	}
	mustMeasure := func(st *stencil.Stencil, deg int) float64 {
		kept, ms, err := measure(st, deg)
		if !kept || err != nil {
			t.Fatalf("%s degree %d at TileZ 128: kept %v, err %v", st.Name, deg, kept, err)
		}
		return ms
	}
	hyp1 := mustMeasure(stencil.Hypterm(), 1)
	for _, deg := range []int{2, 8} {
		if kept, ms, err := measure(stencil.Hypterm(), deg); kept && err == nil && ms < hyp1 {
			t.Fatalf("hypterm degree %d (%.1f ms) beats degree 1 (%.1f ms) at order 4", deg, ms, hyp1)
		}
	}
	if j1, j2 := mustMeasure(stencil.J3D7PT(), 1), mustMeasure(stencil.J3D7PT(), 2); j2 >= j1 {
		t.Fatalf("j3d7pt degree 2 (%.1f ms) should beat degree 1 (%.1f ms) at order 1", j2, j1)
	}
}

func TestCsTunerTunesTemporal(t *testing.T) {
	w := workload(t)
	ds, err := dataset.Collect(w, stats.NewRand(23), 80)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Sampling.PoolSize = 512
	cfg.GA.MaxGenerations = 10
	cfg.EmitKernels = false
	rep, err := core.Tune(w, ds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := w.Measure(w.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestMS >= def {
		t.Fatalf("csTuner did not beat the non-temporal baseline: %.1f vs %.1f ms", rep.BestMS, def)
	}
	// On a memory-bound order-1 stencil, the tuned setting should adopt
	// some temporal blocking.
	if rep.Best[Degree] < 2 {
		t.Fatalf("tuned degree %d — expected temporal blocking to win on j3d7pt (setting %s)",
			rep.Best[Degree], w.Space().Format(rep.Best))
	}
}

func TestTrapezoidOverhead(t *testing.T) {
	if got := trapezoidOverhead(32, 1, 1); got != 1 {
		t.Fatalf("degree 1 overhead = %v", got)
	}
	// 32-wide tile, order 1, degree 4: (32+2*3)/32 = 1.1875.
	if got := trapezoidOverhead(32, 1, 4); math.Abs(got-1.1875) > 1e-12 {
		t.Fatalf("overhead = %v", got)
	}
	// Higher order grows faster.
	if trapezoidOverhead(32, 4, 4) <= trapezoidOverhead(32, 1, 4) {
		t.Fatal("order must amplify the trapezoid")
	}
}

func TestMetricsFinite(t *testing.T) {
	w := workload(t)
	s := w.Space().Default()
	s[Degree] = 2
	s[TileZ] = 64
	r, err := w.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metric %s = %v", k, v)
		}
	}
	if r.Metrics["temporal__degree"] != 2 {
		t.Fatal("degree metric wrong")
	}
	if r.Metrics["temporal__launches"] != 64 { // 128 steps / degree 2
		t.Fatalf("launches = %v", r.Metrics["temporal__launches"])
	}
}

func TestSpaceFormatUsesNames(t *testing.T) {
	w := workload(t)
	out := w.Space().Format(w.Space().Default())
	for _, want := range []string{"TBx=", "Degree=", "Storage="} {
		if !contains(out, want) {
			t.Fatalf("Format missing %q: %s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkTemporalMeasure(b *testing.B) {
	w, err := New(stencil.J3D7PT(), gpu.A100(), 128)
	if err != nil {
		b.Fatal(err)
	}
	set := w.Space().Default()
	set[Degree] = 4
	set[TileZ] = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Measure(set); err != nil {
			b.Fatal(err)
		}
	}
}
