package sim

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func simFor(t testing.TB, st *stencil.Stencil, arch *gpu.Arch) *Simulator {
	t.Helper()
	sp, err := space.New(st)
	if err != nil {
		t.Fatal(err)
	}
	return New(sp, arch)
}

func TestDefaultSettingTimescale(t *testing.T) {
	// j3d7pt is memory bound: 512³ x 2 arrays x 8B = 2.1 GB at ~1.5 TB/s
	// should land in the low milliseconds, within an order of magnitude.
	s := simFor(t, stencil.J3D7PT(), gpu.A100())
	ms, err := s.Measure(s.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if ms < 0.3 || ms > 30 {
		t.Fatalf("j3d7pt default = %.3f ms, expected low-millisecond scale", ms)
	}
	// rhs4center is compute heavy: 320³ x 666 FLOPs ≈ 2.2e10 FLOPs at
	// ~9.7 TFLOPS ≥ 2.25 ms.
	s2 := simFor(t, stencil.RHS4Center(), gpu.A100())
	ms2, err := s2.Measure(s2.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if ms2 < 1 || ms2 > 100 {
		t.Fatalf("rhs4center default = %.3f ms, expected several ms", ms2)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	s := simFor(t, stencil.Helmholtz(), gpu.A100())
	set := s.Space().Default()
	a, err := s.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same setting measured differently: %v vs %v", a, b)
	}
}

// TestMeasureMatchesRun pins Measure, which skips the metric report, to
// Run's time bit for bit, and its rejections to Run's error text.
func TestMeasureMatchesRun(t *testing.T) {
	for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
		for _, st := range stencil.Suite() {
			s := simFor(t, st, arch)
			rng := stats.NewRand(3)
			for n := 0; n < 50; n++ {
				set := s.Space().Random(rng)
				ms, err := s.Measure(set)
				r, rerr := s.Run(set)
				switch {
				case (err == nil) != (rerr == nil):
					t.Fatalf("%s %s: Measure error %v, Run error %v", st.Name, set.Key(), err, rerr)
				case err != nil && err.Error() != rerr.Error():
					t.Fatalf("%s %s: Measure error %q, Run error %q", st.Name, set.Key(), err, rerr)
				case err == nil && math.Float64bits(ms) != math.Float64bits(r.TimeMS):
					t.Fatalf("%s %s: Measure %v, Run %v", st.Name, set.Key(), ms, r.TimeMS)
				}
			}
		}
	}
}

func TestMeasureInvalidSetting(t *testing.T) {
	s := simFor(t, stencil.J3D7PT(), gpu.A100())
	bad := s.Space().Default()
	bad[space.SD] = 2 // explicit violation
	if _, err := s.Measure(bad); err == nil {
		t.Fatal("invalid setting should error")
	}
}

func TestNoiseWithinBounds(t *testing.T) {
	s := simFor(t, stencil.J3D27PT(), gpu.A100())
	noiseless := *s
	noiseless.NoiseAmp = 0
	set := s.Space().Default()
	clean, err := noiseless.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := s.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(noisy-clean) / clean; rel > s.NoiseAmp+1e-9 {
		t.Fatalf("noise %.4f exceeds amplitude %.4f", rel, s.NoiseAmp)
	}
}

func TestSeedChangesNoise(t *testing.T) {
	s1 := simFor(t, stencil.Cheby(), gpu.A100())
	s2 := simFor(t, stencil.Cheby(), gpu.A100())
	s2.Seed = 0xbeef
	set := s1.Space().Default()
	a, _ := s1.Measure(set)
	b, _ := s2.Measure(set)
	if a == b {
		t.Fatal("different seeds should perturb measurements differently")
	}
}

func TestV100SlowerThanA100(t *testing.T) {
	for _, st := range []*stencil.Stencil{stencil.J3D7PT(), stencil.RHS4Center()} {
		sa := simFor(t, st, gpu.A100())
		sv := simFor(t, st, gpu.V100())
		sa.NoiseAmp, sv.NoiseAmp = 0, 0
		set := sa.Space().Default()
		a, err := sa.Measure(set)
		if err != nil {
			t.Fatal(err)
		}
		v, err := sv.Measure(set)
		if err != nil {
			t.Fatal(err)
		}
		if v <= a {
			t.Fatalf("%s: V100 (%.3f ms) should be slower than A100 (%.3f ms)", st.Name, v, a)
		}
	}
}

// TestTunedBeatsNaive: classic good settings must beat pathological ones by
// a wide margin — this is the precondition for the paper's whole premise.
func TestTunedBeatsNaive(t *testing.T) {
	s := simFor(t, stencil.Helmholtz(), gpu.A100())
	s.NoiseAmp = 0
	good := s.Space().Default()
	good[space.TBX] = 64
	good[space.TBY] = 8
	good[space.UseShared] = space.On
	good[space.UFX] = 2

	bad := s.Space().Default()
	bad[space.TBX] = 1 // fully uncoalesced, 4-thread blocks
	bad[space.TBY] = 4

	g, err := s.Measure(good)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Measure(bad)
	if err != nil {
		t.Fatal(err)
	}
	if b < 3*g {
		t.Fatalf("pathological setting (%.3f ms) should be >=3x slower than a good one (%.3f ms)", b, g)
	}
}

func TestCoalescingMatters(t *testing.T) {
	s := simFor(t, stencil.J3D7PT(), gpu.A100())
	s.NoiseAmp = 0
	wide := s.Space().Default() // TBx=64
	narrow := wide.Clone()
	narrow[space.TBX] = 4
	narrow[space.TBY] = 64
	w, err := s.Measure(wide)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Measure(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if n <= w {
		t.Fatalf("narrow TBx (%.3f ms) should lose to wide TBx (%.3f ms) on a memory-bound stencil", n, w)
	}
}

func TestBlockMergeInnermostHurts(t *testing.T) {
	s := simFor(t, stencil.J3D7PT(), gpu.A100())
	s.NoiseAmp = 0
	base := s.Space().Default()
	bmx := base.Clone()
	bmx[space.BMX] = 8
	bmy := base.Clone()
	bmy[space.BMY] = 8
	tb, _ := s.Measure(base)
	tx, err := s.Measure(bmx)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := s.Measure(bmy)
	if err != nil {
		t.Fatal(err)
	}
	// Innermost block merging disrupts coalescing (paper II-B2): merging in
	// x must be clearly worse than the same merge in y.
	if tx <= ty {
		t.Fatalf("BMx=8 (%.3f ms) should be slower than BMy=8 (%.3f ms), base %.3f ms", tx, ty, tb)
	}
}

func TestStreamingHelpsMemoryBoundHighOrder(t *testing.T) {
	s := simFor(t, stencil.Helmholtz(), gpu.A100())
	s.NoiseAmp = 0
	base := s.Space().Default()
	stream := base.Clone()
	stream[space.UseStreaming] = space.On
	stream[space.SD] = 3
	stream[space.SB] = 64
	stream[space.TBZ] = 1
	b, _ := s.Measure(base)
	st, err := s.Measure(stream)
	if err != nil {
		t.Fatal(err)
	}
	if st >= b {
		t.Fatalf("2.5-D streaming (%.3f ms) should beat naive (%.3f ms) on helmholtz", st, b)
	}
}

func TestSerialStreamingLimitsParallelism(t *testing.T) {
	s := simFor(t, stencil.J3D7PT(), gpu.A100())
	s.NoiseAmp = 0
	one := s.Space().Default()
	one[space.UseStreaming] = space.On
	one[space.SD] = 3
	one[space.SB] = 1 // a single tile: blocks only tile x/y
	one[space.TBZ] = 1
	many := one.Clone()
	many[space.SB] = 64
	t1, err := s.Measure(one)
	if err != nil {
		t.Fatal(err)
	}
	t64, err := s.Measure(many)
	if err != nil {
		t.Fatal(err)
	}
	if t64 >= t1 {
		t.Fatalf("concurrent streaming SB=64 (%.3f ms) should beat SB=1 (%.3f ms)", t64, t1)
	}
}

func TestConstantMemoryTradeoff(t *testing.T) {
	// Many-coefficient stencil benefits from constant memory...
	s := simFor(t, stencil.RHS4Center(), gpu.A100())
	s.NoiseAmp = 0
	off := s.Space().Default()
	on := off.Clone()
	on[space.UseConstant] = space.On
	toff, _ := s.Measure(off)
	ton, _ := s.Measure(on)
	if ton >= toff {
		t.Fatalf("constant memory should help rhs4center: on=%.3f off=%.3f", ton, toff)
	}
	// ...while a 2-coefficient stencil sees no gain.
	s2 := simFor(t, stencil.J3D7PT(), gpu.A100())
	s2.NoiseAmp = 0
	off2 := s2.Space().Default()
	on2 := off2.Clone()
	on2[space.UseConstant] = space.On
	toff2, _ := s2.Measure(off2)
	ton2, _ := s2.Measure(on2)
	if ton2 < toff2 {
		t.Fatalf("constant memory should not help j3d7pt: on=%.3f off=%.3f", ton2, toff2)
	}
}

func TestMetricsReport(t *testing.T) {
	s := simFor(t, stencil.Helmholtz(), gpu.A100())
	set := s.Space().Default()
	set[space.UseShared] = space.On
	r, err := s.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	names := MetricNames()
	if len(names) < 15 {
		t.Fatalf("only %d metrics reported", len(names))
	}
	for _, n := range names {
		v, ok := r.Metrics[n]
		if !ok {
			t.Errorf("metric %s missing from report", n)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s is %v", n, v)
		}
	}
	// Percentage metrics stay in [0,100].
	for _, n := range []string{"sm__throughput_pct", "dram__throughput_pct", "lts__hit_rate_pct",
		"l1tex__hit_rate_pct", "l1tex__coalescing_pct", "smsp__branch_efficiency",
		"smsp__barrier_stall_pct", "flop__dp_efficiency_pct"} {
		if v := r.Metrics[n]; v < 0 || v > 100 {
			t.Errorf("metric %s = %v outside [0,100]", n, v)
		}
	}
	if r.Metrics["launch__registers_per_thread"] != float64(r.Kernel.RegsPerThread) {
		t.Error("register metric disagrees with kernel")
	}
	if r.Metrics["gpu__time_duration"] <= 0 {
		t.Error("non-positive duration")
	}
}

func TestMetricsCorrelateWithTime(t *testing.T) {
	// Across random settings, duration must equal TimeMS (unit conversion)
	// and occupancy must vary — otherwise the PMNF stage has nothing to model.
	s := simFor(t, stencil.Cheby(), gpu.A100())
	rng := stats.NewRand(9)
	occs := map[float64]bool{}
	n := 0
	for n < 40 {
		set := s.Space().Random(rng)
		r, err := s.Run(set)
		if err != nil {
			continue
		}
		n++
		if math.Abs(r.Metrics["gpu__time_duration"]/1e6-r.TimeMS) > 1e-9 {
			t.Fatal("duration metric disagrees with TimeMS")
		}
		occs[r.Metrics["sm__occupancy_achieved"]] = true
	}
	if len(occs) < 5 {
		t.Fatalf("occupancy shows only %d distinct values over 40 settings", len(occs))
	}
}

func BenchmarkSimulatorRun(b *testing.B) {
	sp, err := space.New(stencil.RHS4Center())
	if err != nil {
		b.Fatal(err)
	}
	s := New(sp, gpu.A100())
	rng := stats.NewRand(1)
	settings := make([]space.Setting, 128)
	for i := range settings {
		settings[i] = sp.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Run(settings[i%len(settings)])
	}
}
