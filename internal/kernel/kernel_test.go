package kernel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func buildFor(t *testing.T, st *stencil.Stencil, mutate func(space.Setting)) (*Kernel, error) {
	t.Helper()
	sp, err := space.New(st)
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Default()
	if mutate != nil {
		mutate(s)
	}
	return Build(sp, s, gpu.A100())
}

func mustBuild(t *testing.T, st *stencil.Stencil, mutate func(space.Setting)) *Kernel {
	t.Helper()
	k, err := buildFor(t, st, mutate)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBuildDefaultSetting(t *testing.T) {
	k := mustBuild(t, stencil.J3D7PT(), nil)
	if k.ThreadsPerBlock != 64*4 {
		t.Fatalf("ThreadsPerBlock = %d, want 256", k.ThreadsPerBlock)
	}
	// 512/64 x 512/4 x 512/1 blocks.
	if k.GridBlocks != 8*128*512 {
		t.Fatalf("GridBlocks = %d", k.GridBlocks)
	}
	if k.IterationsPerBlock != 1 || k.Streaming {
		t.Fatal("default setting should not stream")
	}
	if k.PointsPerThread != 1 {
		t.Fatalf("PointsPerThread = %d, want 1", k.PointsPerThread)
	}
	if k.RegsPerThread < 20 || k.RegsPerThread > 80 {
		t.Fatalf("RegsPerThread = %d, outside plausible range", k.RegsPerThread)
	}
	if k.GuardFrac != 1.0 {
		t.Fatalf("GuardFrac = %v, want 1 for divisible geometry", k.GuardFrac)
	}
	if k.SharedPerBlock != 0 {
		t.Fatalf("SharedPerBlock = %d without useShared", k.SharedPerBlock)
	}
}

func TestBuildRejectsExplicitInvalid(t *testing.T) {
	_, err := buildFor(t, stencil.J3D7PT(), func(s space.Setting) {
		s[space.SD] = 2 // SD without streaming
	})
	if err == nil || !errors.Is(err, space.ErrInvalid) {
		t.Fatalf("expected ErrInvalid, got %v", err)
	}
}

func TestBuildRejectsRegisterSpill(t *testing.T) {
	// Massive merged cluster on a many-output stencil must spill.
	_, err := buildFor(t, stencil.AddSGD4(), func(s space.Setting) {
		s[space.BMX] = 16
		s[space.BMY] = 16
	})
	if err == nil || !errors.Is(err, ErrResource) {
		t.Fatalf("expected ErrResource for spilled kernel, got %v", err)
	}
}

func TestBuildRejectsSharedOverflow(t *testing.T) {
	// Huge staged tile: 512-wide block with big merge and order-4 halo.
	_, err := buildFor(t, stencil.Hypterm(), func(s space.Setting) {
		s[space.UseShared] = space.On
		s[space.TBX] = 256
		s[space.TBY] = 4
		s[space.UFY] = 8
		s[space.UFZ] = 4
	})
	if err == nil || !errors.Is(err, ErrResource) {
		t.Fatalf("expected ErrResource for smem overflow, got %v", err)
	}
}

func TestStreamingGeometry(t *testing.T) {
	k := mustBuild(t, stencil.J3D7PT(), func(s space.Setting) {
		s[space.UseStreaming] = space.On
		s[space.SD] = 3
		s[space.SB] = 8
		s[space.TBZ] = 1
	})
	if !k.Streaming || k.SDim != 3 || k.SBTiles != 8 {
		t.Fatalf("streaming fields wrong: %+v", k)
	}
	if k.TileLen != 512/8 {
		t.Fatalf("TileLen = %d, want 64", k.TileLen)
	}
	// Each tile walks TileLen/(TBz*AdjZ) = 64 serial iterations.
	if k.IterationsPerBlock != 64 {
		t.Fatalf("IterationsPerBlock = %d, want 64", k.IterationsPerBlock)
	}
	// Blocks: x,y tiling times SB tiles in z.
	if k.GridBlocks != (512/64)*(512/4)*8 {
		t.Fatalf("GridBlocks = %d", k.GridBlocks)
	}
}

func TestRegisterPressureGrowsWithMerging(t *testing.T) {
	base := mustBuild(t, stencil.Helmholtz(), nil)
	merged := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) {
		s[space.UFX] = 4
		s[space.UFY] = 2
	})
	if merged.RegsPerThread <= base.RegsPerThread {
		t.Fatalf("merging should raise register pressure: %d vs %d",
			merged.RegsPerThread, base.RegsPerThread)
	}
}

func TestSharedMemoryCutsRegistersAndLoads(t *testing.T) {
	noShared := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) {
		s[space.UFX] = 2
	})
	shared := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) {
		s[space.UFX] = 2
		s[space.UseShared] = space.On
	})
	if shared.RegsPerThread >= noShared.RegsPerThread {
		t.Fatalf("shared staging should cut register pressure: %d vs %d",
			shared.RegsPerThread, noShared.RegsPerThread)
	}
	if shared.LoadsPerPoint >= noShared.LoadsPerPoint {
		t.Fatalf("shared staging should cut global loads: %v vs %v",
			shared.LoadsPerPoint, noShared.LoadsPerPoint)
	}
	if shared.SharedPerBlock == 0 {
		t.Fatal("shared kernel reports zero smem")
	}
}

func TestRetimingHelpsHighOrderOnly(t *testing.T) {
	// Order-2 stencil under unrolling pressure: retiming must cut registers.
	plain := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) { s[space.UFX] = 4 })
	retimed := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) {
		s[space.UFX] = 4
		s[space.UseRetiming] = space.On
	})
	if retimed.RegsPerThread >= plain.RegsPerThread {
		t.Fatalf("retiming should cut order-2 registers: %d vs %d",
			retimed.RegsPerThread, plain.RegsPerThread)
	}
	// Order-1 stencil: no register benefit, small instruction overhead.
	p1 := mustBuild(t, stencil.J3D7PT(), nil)
	r1 := mustBuild(t, stencil.J3D7PT(), func(s space.Setting) { s[space.UseRetiming] = space.On })
	if r1.RegsPerThread != p1.RegsPerThread {
		t.Fatalf("retiming changed order-1 registers: %d vs %d", r1.RegsPerThread, p1.RegsPerThread)
	}
	if r1.InstrPerPoint <= p1.InstrPerPoint {
		t.Fatal("retiming should add instruction overhead at order 1")
	}
}

func TestPrefetchAddsRegisters(t *testing.T) {
	stream := func(s space.Setting) {
		s[space.UseStreaming] = space.On
		s[space.SD] = 3
		s[space.SB] = 4
		s[space.TBZ] = 1
	}
	noPf := mustBuild(t, stencil.Helmholtz(), stream)
	pf := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) {
		stream(s)
		s[space.UsePrefetching] = space.On
	})
	if pf.RegsPerThread <= noPf.RegsPerThread {
		t.Fatalf("prefetch should add registers: %d vs %d", pf.RegsPerThread, noPf.RegsPerThread)
	}
}

func TestStreamingReducesLoads(t *testing.T) {
	plain := mustBuild(t, stencil.Helmholtz(), nil)
	streamed := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) {
		s[space.UseStreaming] = space.On
		s[space.SD] = 3
		s[space.SB] = 8
		s[space.TBZ] = 1
	})
	if streamed.LoadsPerPoint >= plain.LoadsPerPoint {
		t.Fatalf("streaming should reuse the walked arm: %v vs %v",
			streamed.LoadsPerPoint, plain.LoadsPerPoint)
	}
}

func TestMergingReducesLoadsPerPoint(t *testing.T) {
	base := mustBuild(t, stencil.J3D27PT(), nil)
	merged := mustBuild(t, stencil.J3D27PT(), func(s space.Setting) {
		s[space.UFX] = 4
	})
	if merged.LoadsPerPoint >= base.LoadsPerPoint {
		t.Fatalf("adjacent merging should reuse overlapping taps: %v vs %v",
			merged.LoadsPerPoint, base.LoadsPerPoint)
	}
	// Cyclic merging has no overlap, so loads stay put.
	cyc := mustBuild(t, stencil.J3D27PT(), func(s space.Setting) {
		s[space.CMX] = 4
	})
	if cyc.LoadsPerPoint != base.LoadsPerPoint {
		t.Fatalf("cyclic merging should not change per-point loads: %v vs %v",
			cyc.LoadsPerPoint, base.LoadsPerPoint)
	}
}

func TestUnionTaps(t *testing.T) {
	st := stencil.J3D7PT() // order-1 star, 7 taps
	if got := st.Footprint(1, 1, 1); got != 7 {
		t.Fatalf("Footprint(1,1,1) = %d, want 7", got)
	}
	// Two adjacent x-points: centres 2, x-arm 2r+... union along x = 4,
	// y-arms 2 per point = 4, z-arms 4 → 12.
	if got := st.Footprint(2, 1, 1); got != 12 {
		t.Fatalf("Footprint(2,1,1) = %d, want 12", got)
	}
}

func TestStarArrays(t *testing.T) {
	if got := starArrays(stencil.Cheby()); got != 1 {
		t.Fatalf("cheby star arrays = %d, want 1", got)
	}
	if got := starArrays(stencil.Hypterm()); got != 4 {
		t.Fatalf("hypterm star arrays = %d, want 4", got)
	}
}

func TestGuardFracPartialBlocks(t *testing.T) {
	// 320-wide dims with TBx=128: 3 blocks pad to 384 → active 320/384.
	k := mustBuild(t, stencil.AddSGD4(), func(s space.Setting) {
		s[space.TBX] = 128
		s[space.TBY] = 2
	})
	want := 320.0 / 384.0
	if diff := k.GuardFrac - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("GuardFrac = %v, want %v", k.GuardFrac, want)
	}
}

// TestExecuteEquivalence is the core correctness property: for many random
// valid settings, the transformed iteration order computes exactly the
// reference sweep and touches every interior point exactly once.
func TestExecuteEquivalence(t *testing.T) {
	rng := stats.NewRand(42)
	stencils := []*stencil.Stencil{
		stencil.Shrink(stencil.J3D7PT(), 16, 16, 16),
		stencil.Shrink(stencil.Helmholtz(), 16, 12, 16),
		stencil.Shrink(stencil.Cheby(), 12, 16, 16),
		stencil.Shrink(stencil.AddSGD6(), 16, 16, 12),
	}
	for _, st := range stencils {
		sp, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		in, want := stencil.MakeGrids(st, st.NX, st.NY, st.NZ)
		if err := stencil.Apply(st, in, want, 0); err != nil {
			t.Fatal(err)
		}
		tried := 0
		for tried < 25 {
			s := sp.Random(rng)
			k, err := Build(sp, s, gpu.A100())
			if err != nil {
				continue // resource-invalid settings are expected
			}
			tried++
			_, out := stencil.MakeGrids(st, st.NX, st.NY, st.NZ)
			counts, err := Execute(k, in, out)
			if err != nil {
				t.Fatalf("%s %s: %v", st.Name, s, err)
			}
			for z := 0; z < st.NZ; z++ {
				for y := 0; y < st.NY; y++ {
					for x := 0; x < st.NX; x++ {
						if c := counts.At(x, y, z); c != 1 {
							t.Fatalf("%s %s: point (%d,%d,%d) written %v times", st.Name, s, x, y, z, c)
						}
					}
				}
			}
			for o := 0; o < st.Outputs; o++ {
				d, err := out[o].MaxAbsDiff(want[o])
				if err != nil {
					t.Fatal(err)
				}
				if d > 1e-12 {
					t.Fatalf("%s %s: output %d differs from reference by %v", st.Name, s, o, d)
				}
			}
		}
	}
}

func TestExecuteNeedsGrids(t *testing.T) {
	st := stencil.Shrink(stencil.J3D7PT(), 8, 8, 8)
	sp, _ := space.New(st)
	k, err := Build(sp, sp.Default(), gpu.A100())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(k, nil, nil); err == nil {
		t.Fatal("Execute without grids should error")
	}
}

func TestEmitCUDAContainsTransformMarkers(t *testing.T) {
	k := mustBuild(t, stencil.Helmholtz(), func(s space.Setting) {
		s[space.UseShared] = space.On
		s[space.UseConstant] = space.On
		s[space.UseStreaming] = space.On
		s[space.SD] = 3
		s[space.SB] = 4
		s[space.TBZ] = 1
		s[space.UFX] = 2
		s[space.CMY] = 2
		s[space.UseRetiming] = space.On
		s[space.UsePrefetching] = space.On
	})
	src := k.EmitCUDA()
	for _, want := range []string{
		"__global__", "__launch_bounds__", "helmholtz_kernel",
		"__constant__ double c_coeff", "extern __shared__ double smem",
		"serial streaming steps", "cyclic merge", "#pragma unroll",
		"prefetch", "retiming", "__syncthreads",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted CUDA missing %q", want)
		}
	}
	// Braces must balance.
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Fatalf("unbalanced braces in emitted CUDA:\n%s", src)
	}
}

func TestEmitCUDAPlainKernel(t *testing.T) {
	k := mustBuild(t, stencil.J3D7PT(), nil)
	src := k.EmitCUDA()
	if strings.Contains(src, "__constant__") || strings.Contains(src, "__shared__") {
		t.Fatal("plain kernel should not declare constant/shared memory")
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Fatal("unbalanced braces")
	}
}

func TestBuildDoesNotAliasSetting(t *testing.T) {
	st := stencil.J3D7PT()
	sp, _ := space.New(st)
	s := sp.Default()
	k, err := Build(sp, s, gpu.A100())
	if err != nil {
		t.Fatal(err)
	}
	s[space.TBX] = 1
	if k.Setting[space.TBX] == 1 {
		t.Fatal("Build aliased the caller's setting")
	}
}

func BenchmarkBuild(b *testing.B) {
	st := stencil.RHS4Center()
	sp, err := space.New(st)
	if err != nil {
		b.Fatal(err)
	}
	arch := gpu.A100()
	rng := stats.NewRand(1)
	settings := make([]space.Setting, 64)
	for i := range settings {
		settings[i] = sp.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Build(sp, settings[i%len(settings)], arch)
	}
}

func BenchmarkEmitCUDA(b *testing.B) {
	st := stencil.Hypterm()
	sp, err := space.New(st)
	if err != nil {
		b.Fatal(err)
	}
	k, err := Build(sp, sp.Default(), gpu.A100())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.EmitCUDA()
	}
}
