package gemm

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
)

func workload(t testing.TB) *Workload {
	t.Helper()
	w, err := New(4096, 4096, 4096, gpu.A100())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 1, gpu.A100()); err == nil {
		t.Fatal("zero M should error")
	}
	if _, err := New(128, 128, 128, nil); err == nil {
		t.Fatal("nil arch should error")
	}
}

func TestDefaultSettingMeasurable(t *testing.T) {
	w := workload(t)
	set := w.Space().Default()
	if err := w.Space().Validate(set); err != nil {
		t.Fatal(err)
	}
	ms, err := w.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	// 2*4096³ = 137 GFLOP at ~9.7 TFLOPS: at least ~14 ms even at peak.
	if ms < 10 || ms > 500 {
		t.Fatalf("default GEMM time %.2f ms implausible", ms)
	}
}

func TestExplicitConstraints(t *testing.T) {
	w := workload(t)
	sp := w.Space()
	base := sp.Default()

	// TM == BM is the boundary of the tile-containment rule and is legal
	// (one thread row covering the whole block tile).
	edge := base.Clone()
	edge[BM], edge[TM], edge[BN], edge[TN] = 16, 16, 64, 1
	if err := sp.Validate(edge); err != nil {
		t.Errorf("TM==BM should be legal: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(space.Setting)
	}{
		{"too many threads", func(s space.Setting) { s[BM], s[BN], s[TM], s[TN] = 256, 256, 2, 2 }},
		{"below one warp", func(s space.Setting) { s[BM], s[BN], s[TM], s[TN] = 16, 16, 16, 16 }},
		{"vector exceeds BK", func(s space.Setting) { s[BK] = 4; s[VecWidth] = 8 }},
	}
	for _, c := range cases {
		s := base.Clone()
		c.mutate(s)
		if err := sp.Validate(s); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// splitK too deep: K/BK = 4096/64 = 64, SplitK 16 ok; shrink K.
	small, err := New(256, 256, 64, gpu.A100())
	if err != nil {
		t.Fatal(err)
	}
	s := small.Space().Default()
	s[BK] = 64
	s[SplitK] = 2
	if err := small.Space().Validate(s); err == nil {
		t.Error("splitK beyond K/BK accepted")
	}
}

func TestRandomValid(t *testing.T) {
	w := workload(t)
	rng := stats.NewRand(4)
	for i := 0; i < 200; i++ {
		s := w.Space().Random(rng)
		if err := w.Space().Validate(s); err != nil {
			t.Fatalf("Random produced invalid setting: %v", err)
		}
	}
}

func TestResourceRejects(t *testing.T) {
	w := workload(t)
	s := w.Space().Default()
	s[TM], s[TN] = 16, 16 // 512-reg accumulator tile: must spill
	s[BM], s[BN] = 256, 256
	if err := w.Space().Validate(s); err != nil {
		t.Skip("already explicitly invalid")
	}
	if _, err := w.Measure(s); err == nil {
		t.Fatal("expected register spill rejection")
	}
}

func TestModelCouplings(t *testing.T) {
	w := workload(t)
	w.NoiseAmp = 0
	base := w.Space().Default()
	bms, err := w.Measure(base)
	if err != nil {
		t.Fatal(err)
	}
	// Double buffering must help (hides staging barriers).
	db := base.Clone()
	db[DoubleBuf] = space.On
	dms, err := w.Measure(db)
	if err != nil {
		t.Fatal(err)
	}
	if dms >= bms {
		t.Fatalf("double buffering should help: %.3f vs %.3f", dms, bms)
	}
	// A degenerate 16x16 block tile with 1x1 threads wastes the machine.
	tiny := space.Setting{16, 16, 4, 1, 1, 1, space.Off, 1}
	tms, err := w.Measure(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if tms <= bms {
		t.Fatalf("tiny tiles should be much slower: %.3f vs %.3f", tms, bms)
	}
}

func TestV100Slower(t *testing.T) {
	a, err := New(2048, 2048, 2048, gpu.A100())
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(2048, 2048, 2048, gpu.V100())
	if err != nil {
		t.Fatal(err)
	}
	a.NoiseAmp, v.NoiseAmp = 0, 0
	ams, _ := a.Measure(a.Space().Default())
	vms, _ := v.Measure(v.Space().Default())
	if vms <= ams {
		t.Fatalf("V100 (%.2f) should trail A100 (%.2f)", vms, ams)
	}
}

// TestCsTunerTunesGEMM is the headline: the unmodified pipeline tunes a
// non-stencil workload through the same Objective surface.
func TestCsTunerTunesGEMM(t *testing.T) {
	w := workload(t)
	ds, err := dataset.Collect(w, stats.NewRand(8), 96)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Sampling.PoolSize = 512
	cfg.GA.MaxGenerations = 10
	cfg.EmitKernels = false // no CUDA emitter for GEMM
	rep, err := core.Tune(w, ds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Space().Validate(rep.Best); err != nil {
		t.Fatalf("best GEMM setting invalid: %v", err)
	}
	def, err := w.Measure(w.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestMS >= def {
		t.Fatalf("csTuner did not beat the default GEMM: %.3f vs %.3f", rep.BestMS, def)
	}
	// Groups must partition the 8 GEMM parameters, not the 19 stencil ones.
	seen := map[int]bool{}
	for _, g := range rep.Groups {
		for _, p := range g {
			if p < 0 || p >= NumParams {
				t.Fatalf("group index %d outside GEMM space", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != NumParams {
		t.Fatalf("groups cover %d/%d GEMM parameters", len(seen), NumParams)
	}
}

func TestMetricsFinite(t *testing.T) {
	w := workload(t)
	r, err := w.Run(w.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) < 8 {
		t.Fatalf("only %d metrics", len(r.Metrics))
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metric %s = %v", k, v)
		}
	}
}

func BenchmarkGEMMMeasure(b *testing.B) {
	w, err := New(4096, 4096, 4096, gpu.A100())
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
