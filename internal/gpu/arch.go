// Package gpu models the NVIDIA GPU architectures the paper evaluates on —
// Tesla A100 (Ampere) and Tesla V100 (Volta) — at the level of detail the
// auto-tuner can observe: per-SM resource limits that determine occupancy,
// and throughput/latency headline numbers that drive the execution-time
// model in package sim.
//
// This package is the hardware half of the substitution documented in
// DESIGN.md: the tuner treats the simulated GPU exactly as it would treat
// real hardware, observing only (setting → time, metrics).
package gpu

import "fmt"

// Arch captures one GPU generation's resource and throughput envelope.
// Numbers follow the public A100/V100 whitepapers cited by the paper.
type Arch struct {
	Name string

	// SM topology.
	SMs      int // number of streaming multiprocessors
	WarpSize int

	// Per-SM scheduling limits (CUDA occupancy calculator inputs).
	MaxThreadsPerSM    int
	MaxBlocksPerSM     int
	MaxWarpsPerSM      int
	RegistersPerSM     int // 32-bit registers
	MaxRegsPerThread   int // hard compile cap; beyond this a kernel cannot build
	SpillRegsPerThread int // above this, ptxas spills to local memory

	// Memories.
	SharedMemPerSM    int // bytes available for shared memory per SM
	SharedMemPerBlock int // bytes a single block may allocate
	L2Bytes           int
	ConstantBytes     int

	// Throughputs.
	ClockGHz        float64
	FP64PerSM       int     // FP64 lanes per SM
	DRAMBandwidthGB float64 // GB/s
	L2BandwidthGB   float64 // GB/s aggregate
	SharedBWPerSMGB float64 // GB/s per SM

	// Latency-ish constants (nanoseconds / microseconds).
	DRAMLatencyNS    float64
	BarrierCostNS    float64 // block-wide __syncthreads cost
	LaunchOverheadUS float64 // kernel launch fixed cost
}

// A100 returns the NVIDIA Tesla A100 (SXM4 40GB) model, the paper's primary
// platform (Table II).
func A100() *Arch {
	return &Arch{
		Name:     "A100",
		SMs:      108,
		WarpSize: 32,

		MaxThreadsPerSM:    2048,
		MaxBlocksPerSM:     32,
		MaxWarpsPerSM:      64,
		RegistersPerSM:     65536,
		MaxRegsPerThread:   255,
		SpillRegsPerThread: 192,

		SharedMemPerSM:    167936, // 164 KB
		SharedMemPerBlock: 166912, // 163 KB opt-in max
		L2Bytes:           40 << 20,
		ConstantBytes:     64 << 10,

		ClockGHz:        1.41,
		FP64PerSM:       32,
		DRAMBandwidthGB: 1555,
		L2BandwidthGB:   4500,
		SharedBWPerSMGB: 128,

		DRAMLatencyNS:    470,
		BarrierCostNS:    28,
		LaunchOverheadUS: 3.5,
	}
}

// V100 returns the NVIDIA Tesla V100 (SXM2 16GB) model used for the
// portability study (paper Sec. V-D).
func V100() *Arch {
	return &Arch{
		Name:     "V100",
		SMs:      80,
		WarpSize: 32,

		MaxThreadsPerSM:    2048,
		MaxBlocksPerSM:     32,
		MaxWarpsPerSM:      64,
		RegistersPerSM:     65536,
		MaxRegsPerThread:   255,
		SpillRegsPerThread: 168,

		SharedMemPerSM:    98304, // 96 KB
		SharedMemPerBlock: 98304,
		L2Bytes:           6 << 20,
		ConstantBytes:     64 << 10,

		ClockGHz:        1.53,
		FP64PerSM:       32,
		DRAMBandwidthGB: 900,
		L2BandwidthGB:   2500,
		SharedBWPerSMGB: 110,

		DRAMLatencyNS:    440,
		BarrierCostNS:    33,
		LaunchOverheadUS: 4.0,
	}
}

// ByName resolves "a100"/"v100" (case-insensitive first letter tolerated).
func ByName(name string) (*Arch, error) {
	switch name {
	case "a100", "A100":
		return A100(), nil
	case "v100", "V100":
		return V100(), nil
	}
	return nil, fmt.Errorf("gpu: unknown architecture %q (want a100 or v100)", name)
}

// PeakFP64GFLOPS returns the architecture's peak double-precision rate.
func (a *Arch) PeakFP64GFLOPS() float64 {
	// Each FP64 lane retires one FMA (2 FLOPs) per cycle.
	return float64(a.SMs) * float64(a.FP64PerSM) * a.ClockGHz * 2
}

// Occupancy is the result of the occupancy calculation for one kernel
// configuration.
type Occupancy struct {
	BlocksPerSM   int
	WarpsPerBlock int
	WarpsPerSM    int
	Achieved      float64 // warpsPerSM / MaxWarpsPerSM, in [0,1]
	Limiter       string  // which resource bound blocksPerSM: threads|blocks|registers|shared
}

// ComputeOccupancy runs the CUDA occupancy calculation: how many blocks of
// the given size co-reside on one SM given register and shared-memory use.
// Register allocation granularity is modelled per warp (256-register
// granularity), matching nvcc's allocation units closely enough for tuning.
func (a *Arch) ComputeOccupancy(threadsPerBlock, regsPerThread, sharedPerBlock int) (Occupancy, error) {
	if threadsPerBlock <= 0 {
		return Occupancy{}, &occupancyError{reason: blockNonPositive, a: threadsPerBlock}
	}
	if threadsPerBlock > 1024 {
		return Occupancy{}, &occupancyError{reason: blockTooLarge, a: threadsPerBlock}
	}
	if regsPerThread <= 0 {
		regsPerThread = 1
	}
	if sharedPerBlock < 0 {
		return Occupancy{}, &occupancyError{reason: sharedNegative, a: sharedPerBlock}
	}
	if sharedPerBlock > a.SharedMemPerBlock {
		return Occupancy{}, &occupancyError{reason: sharedTooLarge, a: sharedPerBlock, b: a.SharedMemPerBlock}
	}
	if regsPerThread > a.MaxRegsPerThread {
		return Occupancy{}, &occupancyError{reason: regsOverCap, a: regsPerThread, b: a.MaxRegsPerThread}
	}

	warpsPerBlock := ceilDiv(threadsPerBlock, a.WarpSize)

	byThreads := a.MaxThreadsPerSM / (warpsPerBlock * a.WarpSize)
	byBlocks := a.MaxBlocksPerSM
	// Registers allocate in 256-register warp granules.
	regsPerWarp := roundUp(regsPerThread*a.WarpSize, 256)
	byRegs := a.RegistersPerSM / (regsPerWarp * warpsPerBlock)
	byShared := a.MaxBlocksPerSM
	if sharedPerBlock > 0 {
		byShared = a.SharedMemPerSM / sharedPerBlock
	}

	blocks := byThreads
	limiter := "threads"
	if byBlocks < blocks {
		blocks, limiter = byBlocks, "blocks"
	}
	if byRegs < blocks {
		blocks, limiter = byRegs, "registers"
	}
	if byShared < blocks {
		blocks, limiter = byShared, "shared"
	}
	if blocks < 1 {
		return Occupancy{}, &occupancyError{reason: zeroBlocks, limiter: limiter}
	}

	warpsPerSM := blocks * warpsPerBlock
	if warpsPerSM > a.MaxWarpsPerSM {
		warpsPerSM = a.MaxWarpsPerSM
	}
	return Occupancy{
		BlocksPerSM:   blocks,
		WarpsPerBlock: warpsPerBlock,
		WarpsPerSM:    warpsPerSM,
		Achieved:      float64(warpsPerSM) / float64(a.MaxWarpsPerSM),
		Limiter:       limiter,
	}, nil
}

// occupancyError is a configuration the occupancy calculation rejects. It
// keeps its operands and renders the text only when Error is called, so the
// tuners' build checks, which only test for nil, never format one.
type occupancyError struct {
	reason  occupancyReason
	a, b    int
	limiter string
}

type occupancyReason uint8

const (
	blockNonPositive occupancyReason = iota
	blockTooLarge
	sharedNegative
	sharedTooLarge
	regsOverCap
	zeroBlocks
)

func (e *occupancyError) Error() string {
	switch e.reason {
	case blockNonPositive:
		return fmt.Sprintf("gpu: non-positive block size %d", e.a)
	case blockTooLarge:
		return fmt.Sprintf("gpu: block size %d exceeds 1024", e.a)
	case sharedNegative:
		return fmt.Sprintf("gpu: negative shared memory %d", e.a)
	case sharedTooLarge:
		return fmt.Sprintf("gpu: shared memory %dB exceeds per-block max %dB", e.a, e.b)
	case regsOverCap:
		return fmt.Sprintf("gpu: %d registers/thread exceeds cap %d", e.a, e.b)
	}
	return fmt.Sprintf("gpu: configuration fits zero blocks per SM (limiter %s)", e.limiter)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func roundUp(v, g int) int { return ceilDiv(v, g) * g }
