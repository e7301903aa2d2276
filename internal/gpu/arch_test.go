package gpu

import (
	"fmt"
	"math"
	"testing"
)

func TestArchHeadlineNumbers(t *testing.T) {
	a := A100()
	// A100 peak FP64 (non-tensor) is ~9.7 TFLOPS.
	if got := a.PeakFP64GFLOPS(); math.Abs(got-9746) > 100 {
		t.Fatalf("A100 FP64 peak = %.0f GFLOPS, want ~9700", got)
	}
	v := V100()
	// V100 peak FP64 is ~7.8 TFLOPS.
	if got := v.PeakFP64GFLOPS(); math.Abs(got-7834) > 100 {
		t.Fatalf("V100 FP64 peak = %.0f GFLOPS, want ~7800", got)
	}
	if a.SMs != 108 || v.SMs != 80 {
		t.Fatal("SM counts wrong")
	}
	if a.DRAMBandwidthGB <= v.DRAMBandwidthGB {
		t.Fatal("A100 must have higher DRAM bandwidth than V100")
	}
	if a.L2Bytes <= v.L2Bytes {
		t.Fatal("A100 must have a larger L2")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"a100", "A100", "v100", "V100"} {
		a, err := ByName(n)
		if err != nil || a == nil {
			t.Fatalf("ByName(%s) = %v, %v", n, a, err)
		}
	}
	if _, err := ByName("h100"); err == nil {
		t.Fatal("unknown arch should error")
	}
}

func TestOccupancyFullBlocks(t *testing.T) {
	a := A100()
	// 256 threads, 32 regs, no shared: limited by threads (2048/256 = 8).
	occ, err := a.ComputeOccupancy(256, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 8 {
		t.Fatalf("BlocksPerSM = %d, want 8", occ.BlocksPerSM)
	}
	if occ.WarpsPerSM != 64 || occ.Achieved != 1.0 {
		t.Fatalf("WarpsPerSM = %d achieved %v, want 64/1.0", occ.WarpsPerSM, occ.Achieved)
	}
	if occ.Limiter != "threads" {
		t.Fatalf("limiter = %s, want threads", occ.Limiter)
	}
}

func TestOccupancyRegisterLimited(t *testing.T) {
	a := A100()
	// 1024 threads × 128 regs = 131072 regs > 65536 per SM: register limited,
	// and in fact zero blocks fit.
	if _, err := a.ComputeOccupancy(1024, 128, 0); err == nil {
		t.Fatal("expected zero-block config to error")
	}
	// 256 threads × 64 regs: regsPerWarp = 2048, per block 8 warps → 16384.
	// 65536/16384 = 4 blocks; thread limit would allow 8.
	occ, err := a.ComputeOccupancy(256, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 4 || occ.Limiter != "registers" {
		t.Fatalf("BlocksPerSM = %d limiter %s, want 4/registers", occ.BlocksPerSM, occ.Limiter)
	}
}

func TestOccupancySharedLimited(t *testing.T) {
	a := V100()
	// 49152B shared per block on V100 (96KB/SM): only 2 blocks fit.
	occ, err := a.ComputeOccupancy(128, 32, 49152)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 2 || occ.Limiter != "shared" {
		t.Fatalf("BlocksPerSM = %d limiter %s, want 2/shared", occ.BlocksPerSM, occ.Limiter)
	}
}

func TestOccupancyBlockCountLimited(t *testing.T) {
	a := A100()
	// Tiny 32-thread blocks: thread limit allows 64 blocks but hardware caps at 32.
	occ, err := a.ComputeOccupancy(32, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 32 || occ.Limiter != "blocks" {
		t.Fatalf("BlocksPerSM = %d limiter %s, want 32/blocks", occ.BlocksPerSM, occ.Limiter)
	}
	// 32 blocks × 1 warp = 32 warps of 64 → 50% occupancy.
	if occ.Achieved != 0.5 {
		t.Fatalf("achieved = %v, want 0.5", occ.Achieved)
	}
}

func TestOccupancyErrors(t *testing.T) {
	a := A100()
	for _, c := range []struct {
		threads, regs, shared int
		want                  string
	}{
		{0, 32, 0, "gpu: non-positive block size 0"},
		{2048, 32, 0, "gpu: block size 2048 exceeds 1024"},
		{256, 300, 0, "gpu: 300 registers/thread exceeds cap 255"},
		{256, 32, -1, "gpu: negative shared memory -1"},
		{256, 32, a.SharedMemPerBlock + 1, fmt.Sprintf("gpu: shared memory %dB exceeds per-block max %dB",
			a.SharedMemPerBlock+1, a.SharedMemPerBlock)},
		{1024, 128, 0, "gpu: configuration fits zero blocks per SM (limiter registers)"},
	} {
		_, err := a.ComputeOccupancy(c.threads, c.regs, c.shared)
		if err == nil || err.Error() != c.want {
			t.Errorf("ComputeOccupancy(%d, %d, %d) error %v, want %q", c.threads, c.regs, c.shared, err, c.want)
		}
	}
	// Zero/negative registers are clamped to 1, not an error.
	if _, err := a.ComputeOccupancy(256, 0, 0); err != nil {
		t.Fatalf("regs=0 should clamp: %v", err)
	}
}

func TestOccupancyMonotoneInRegisters(t *testing.T) {
	a := A100()
	prev := 1 << 30
	for regs := 16; regs <= 128; regs *= 2 {
		occ, err := a.ComputeOccupancy(128, regs, 0)
		if err != nil {
			t.Fatalf("regs=%d: %v", regs, err)
		}
		if occ.BlocksPerSM > prev {
			t.Fatalf("occupancy increased with register pressure at regs=%d", regs)
		}
		prev = occ.BlocksPerSM
	}
}

func TestOccupancyPartialWarp(t *testing.T) {
	a := A100()
	// 48 threads round up to 2 warps per block.
	occ, err := a.ComputeOccupancy(48, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.WarpsPerBlock != 2 {
		t.Fatalf("WarpsPerBlock = %d, want 2", occ.WarpsPerBlock)
	}
}

func BenchmarkComputeOccupancy(b *testing.B) {
	a := A100()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.ComputeOccupancy(256, 64, 8192); err != nil {
			b.Fatal(err)
		}
	}
}
