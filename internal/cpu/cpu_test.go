package cpu

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func workload(t testing.TB) *Workload {
	t.Helper()
	w, err := New(stencil.Helmholtz(), XeonE52680v4())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestArchPeak(t *testing.T) {
	a := XeonE52680v4()
	// 14 cores x 2.4 GHz x 4 lanes x 2 FMA ports x 2 flops ≈ 537 GFLOPS.
	if got := a.PeakFP64GFLOPS(); math.Abs(got-537.6) > 1 {
		t.Fatalf("peak = %v GFLOPS", got)
	}
}

func TestNewValidation(t *testing.T) {
	bad := stencil.J3D7PT()
	bad.FLOPs = 0
	if _, err := New(bad, XeonE52680v4()); err == nil {
		t.Fatal("invalid stencil should error")
	}
	if _, err := New(stencil.J3D7PT(), nil); err == nil {
		t.Fatal("nil arch should error")
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
	// helmholtz: 512³ x 2 arrays x 8B ≈ 2.1 GB at 76.8 GB/s ≥ 28 ms.
	if ms < 20 || ms > 2000 {
		t.Fatalf("default CPU sweep %.1f ms implausible", ms)
	}
}

func TestExplicitConstraints(t *testing.T) {
	w := workload(t)
	sp := w.Space()
	s := sp.Default()
	s[UnrollX] = 8
	s[TX] = 4
	if err := sp.Validate(s); err == nil {
		t.Fatal("UnrollX > TX accepted")
	}
	s = sp.Default()
	s[Vectorize] = space.On
	s[TX] = 2
	if err := sp.Validate(s); err == nil {
		t.Fatal("vector tile below SIMD width accepted")
	}
}

func TestRandomValid(t *testing.T) {
	w := workload(t)
	rng := stats.NewRand(3)
	for i := 0; i < 200; i++ {
		s := w.Space().Random(rng)
		if err := w.Space().Validate(s); err != nil {
			t.Fatalf("invalid random setting: %v", err)
		}
	}
}

func TestModelCouplings(t *testing.T) {
	w := workload(t)
	w.NoiseAmp = 0
	sp := w.Space()

	// More threads help up to the core count.
	one := sp.Default()
	one[Threads] = 1
	full := sp.Default()
	full[Threads] = 16
	t1, err := w.Measure(one)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := w.Measure(full)
	if err != nil {
		t.Fatal(err)
	}
	if t16 >= t1 {
		t.Fatalf("16 threads (%.1f ms) should beat 1 thread (%.1f ms)", t16, t1)
	}

	// Vectorization helps a compute-leaning stencil.
	cw, err := New(stencil.RHS4Center(), XeonE52680v4())
	if err != nil {
		t.Fatal(err)
	}
	cw.NoiseAmp = 0
	scalar := cw.Space().Default()
	vec := scalar.Clone()
	vec[Vectorize] = space.On
	ts, _ := cw.Measure(scalar)
	tv, err := cw.Measure(vec)
	if err != nil {
		t.Fatal(err)
	}
	if tv >= ts {
		t.Fatalf("vectorization should help rhs4center: %.1f vs %.1f ms", tv, ts)
	}

	// Cache blocking: an L2-sized tile must beat a cache-busting tile on a
	// wide-halo stencil.
	hw, err := New(stencil.Hypterm(), XeonE52680v4())
	if err != nil {
		t.Fatal(err)
	}
	hw.NoiseAmp = 0
	good := hw.Space().Default()
	good[TX], good[TY], good[TZ] = 64, 8, 4
	bad := hw.Space().Default()
	bad[TX], bad[TY], bad[TZ] = 256, 256, 256
	tg, err := hw.Measure(good)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := hw.Measure(bad)
	if err != nil {
		t.Fatal(err)
	}
	if tg >= tb {
		t.Fatalf("cache blocking should help hypterm: blocked %.1f vs unblocked %.1f ms", tg, tb)
	}
}

func TestOversubscriptionPenalty(t *testing.T) {
	w := workload(t)
	w.NoiseAmp = 0
	sp := w.Space()
	full := sp.Default()
	full[Threads] = 16
	over := sp.Default()
	over[Threads] = 32
	tf, _ := w.Measure(full)
	to, err := w.Measure(over)
	if err != nil {
		t.Fatal(err)
	}
	if to <= tf {
		t.Fatalf("oversubscription should cost: 32thr %.2f vs 16thr %.2f ms", to, tf)
	}
}

// TestCsTunerTunesCPU: the pipeline tunes the CPU workload unchanged.
func TestCsTunerTunesCPU(t *testing.T) {
	w := workload(t)
	ds, err := dataset.Collect(w, stats.NewRand(19), 80)
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
		t.Fatalf("csTuner did not beat the default OpenMP kernel: %.2f vs %.2f ms", rep.BestMS, def)
	}
	if err := w.Space().Validate(rep.Best); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsFinite(t *testing.T) {
	w := workload(t)
	r, err := w.Run(w.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) < 7 {
		t.Fatalf("only %d metrics", len(r.Metrics))
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metric %s = %v", k, v)
		}
	}
}

func BenchmarkCPUMeasure(b *testing.B) {
	w, err := New(stencil.Helmholtz(), XeonE52680v4())
	if err != nil {
		b.Fatal(err)
	}
	set := w.Space().Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Measure(set); err != nil {
			b.Fatal(err)
		}
	}
}
