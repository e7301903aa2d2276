// Package sim is the GPU execution-time simulator standing in for the real
// A100/V100 testbed (see DESIGN.md §1). Given a built kernel it produces a
// deterministic kernel time and a Nsight-Compute-like metric report.
// Measure, the path every tuner searches through, runs only the time model;
// Run and RunKernel add the metric report.
//
// The model composes occupancy, a compute-throughput term (FP64 pipes, ILP,
// constant-memory broadcast), a memory term (coalescing, L1/L2 reuse, DRAM
// bandwidth, a Little's-law latency cap), streaming synchronization cost,
// wave quantization, and hash-seeded per-setting noise. The absolute numbers
// are not the reproduction target; the parameter→performance couplings are,
// and the motivation experiments (Figs. 2–4) verify their shape.
package sim

import (
	"errors"
	"math"

	"repro/internal/gpu"
	"repro/internal/kernel"
	"repro/internal/space"
	"repro/internal/stats"
)

// ErrBudget is returned by budget-enforcing Objective wrappers (the harness
// meter) once their evaluation budget is exhausted. It lives here so tuners
// and caches can distinguish "setting invalid" (cacheable) from "out of
// budget" (transient) without import cycles.
var ErrBudget = errors.New("sim: evaluation budget exhausted")

// ArchProvider is the optional interface an Objective (or a wrapper such as
// the evaluation engine) implements when a modelled GPU backs it. The
// codegen stage reaches the target architecture through it, so wrapping an
// objective never severs code generation.
type ArchProvider interface {
	Architecture() *gpu.Arch
}

// ArchOf returns the architecture behind obj, unwrapping through any
// ArchProvider, or nil when none is exposed.
func ArchOf(obj Objective) *gpu.Arch {
	if ap, ok := obj.(ArchProvider); ok {
		return ap.Architecture()
	}
	return nil
}

// Objective is the measurement interface every auto-tuner in this repository
// searches against: a parameter space plus a black-box measure function.
// The simulator implements it; tests substitute synthetic objectives.
type Objective interface {
	// Space returns the parameter space being tuned.
	Space() *space.Space
	// Measure returns the kernel execution time in milliseconds for the
	// setting, or an error when the setting is invalid (explicit or
	// implicit constraints).
	Measure(s space.Setting) (float64, error)
}

// Result is one simulated kernel execution.
type Result struct {
	TimeMS  float64
	Kernel  *kernel.Kernel
	Metrics map[string]float64
}

// Simulator measures stencil kernel settings on a modelled GPU.
type Simulator struct {
	Arch *gpu.Arch
	Sp   *space.Space

	// NoiseAmp is the relative amplitude of per-setting measurement noise
	// (default 2% when constructed via New).
	NoiseAmp float64
	// Seed perturbs the noise hash so "re-collecting the dataset on new
	// hardware" (paper Sec. V-D) also reshuffles measurement noise.
	Seed uint64
}

// New returns a simulator for the given space and architecture.
func New(sp *space.Space, arch *gpu.Arch) *Simulator {
	return &Simulator{Arch: arch, Sp: sp, NoiseAmp: 0.02, Seed: 0x5eed}
}

// Space implements Objective.
func (sim *Simulator) Space() *space.Space { return sim.Sp }

// Architecture exposes the modelled GPU. Wrappers (e.g. the harness meter)
// forward it so code generation can reach the target arch through any
// objective that ultimately measures on a simulator.
func (sim *Simulator) Architecture() *gpu.Arch { return sim.Arch }

// Measure implements Objective. It builds the kernel and runs the
// execution-time model only: tuners need the time, not the metric report.
func (sim *Simulator) Measure(s space.Setting) (float64, error) {
	k, err := kernel.Build(sim.Sp, s, sim.Arch)
	if err != nil {
		return 0, err
	}
	return sim.model(k).timeMS, nil
}

// Run builds the kernel for the setting and simulates one launch.
func (sim *Simulator) Run(s space.Setting) (*Result, error) {
	k, err := kernel.Build(sim.Sp, s, sim.Arch)
	if err != nil {
		return nil, err
	}
	return sim.RunKernel(k), nil
}

// RunKernel simulates a launch of an already-built kernel and reports its
// metrics. k must have been built in sim.Sp (kernel.Build(sim.Sp, ...)).
func (sim *Simulator) RunKernel(k *kernel.Kernel) *Result {
	m := sim.model(k)
	return &Result{TimeMS: m.timeMS, Kernel: k, Metrics: sim.metrics(k, &m)}
}

// model is one evaluation of the execution-time model: the kernel time and
// the intermediate terms the metric report is derived from.
type model struct {
	computeNS, memNS, smemNS, syncNS, totalNS float64
	dramBytes, loadBytes, storeBytes          float64
	l2Hit, coalEff, waves, ilp                float64
	points                                    float64
	timeMS                                    float64
}

// model runs the execution-time model for k.
func (sim *Simulator) model(k *kernel.Kernel) model {
	a := sim.Arch
	st := k.Stencil

	// ---- Parallel shape -------------------------------------------------
	occ := k.Occ
	waves := float64(k.GridBlocks) / float64(occ.BlocksPerSM*a.SMs)
	tail := math.Ceil(waves) / waves // underfill and wave quantization

	// Padded work: guard-failing threads still occupy issue slots.
	points := float64(st.Points()) / k.GuardFrac

	// ---- Compute term ---------------------------------------------------
	// FP64 instruction service rate per nanosecond across the GPU.
	instRate := float64(a.SMs) * float64(a.FP64PerSM) * a.ClockGHz
	occCompute := math.Min(1, float64(occ.WarpsPerSM)/8.0) // latency hiding for the FP64 pipe
	ilp := 1 + 0.12*math.Log2(math.Min(float64(k.AdjX*k.AdjY*k.AdjZ), 16))
	if ilp > 1.5 {
		ilp = 1.5
	}
	constFactor := 1.0
	switch {
	case k.UsesConstant && st.Coeffs >= 16:
		constFactor = 1.04 // broadcast hits replace repeated global coefficient loads
	case k.UsesConstant && st.Coeffs < 8:
		constFactor = 0.99 // setup cost with nothing to amortize it
	case !k.UsesConstant && st.Coeffs >= 24:
		constFactor = 0.97 // large coefficient sets pressure the immediate path
	}
	computeNS := points * k.InstrPerPoint / (instRate * occCompute * ilp)

	// ---- Memory term ----------------------------------------------------
	loadBytes := points * k.LoadsPerPoint * 8
	storeBytes := float64(st.Points()) * float64(st.Outputs) * 8
	coalEff := coalescingEfficiency(k)

	compulsory := float64(st.Points()) * float64(st.Inputs+st.Outputs) * 8
	extra := loadBytes + storeBytes - compulsory
	if extra < 0 {
		extra = 0
	}
	l2Hit := sim.l2HitRate(k)
	dramBytes := compulsory + extra*(1-l2Hit)

	// Little's law: limited MLP caps achievable DRAM bandwidth when few
	// warps are resident.
	mlp := 2 + 0.5*math.Log2(math.Max(1, math.Min(float64(k.AdjX*k.AdjY*k.AdjZ), 16)))
	inFlight := float64(occ.WarpsPerSM) * float64(a.SMs) * 128 * mlp // bytes
	latBW := inFlight / a.DRAMLatencyNS                              // bytes/ns == GB/s
	dramBW := math.Min(a.DRAMBandwidthGB*coalEff, latBW)
	dramNS := dramBytes / dramBW
	l2NS := (loadBytes + storeBytes) / (a.L2BandwidthGB * coalEff)
	memNS := math.Max(dramNS, l2NS)

	// Shared-memory service time can bound smem-staged kernels.
	var smemNS float64
	if k.UsesShared {
		smemBytes := points * k.LoadsPerPoint * 8 * 2 // stage in + read out
		smemNS = smemBytes / (a.SharedBWPerSMGB * float64(a.SMs))
	}

	// ---- Synchronization term -------------------------------------------
	var syncNS float64
	if k.Streaming {
		per := float64(k.IterationsPerBlock) * a.BarrierCostNS
		if k.Prefetch {
			per *= 0.4 // overlap next-plane loads with current FMAs
		}
		syncNS = per * math.Ceil(waves)
	} else if k.UsesShared {
		syncNS = a.BarrierCostNS * math.Ceil(waves)
	}

	// Coefficient handling scales whichever path dominates: constant-cache
	// broadcasts relieve both the instruction stream and the load path.
	busyNS := math.Max(computeNS, math.Max(memNS, smemNS)) * tail / constFactor
	totalNS := a.LaunchOverheadUS*1000 + busyNS + syncNS

	// ---- Deterministic measurement noise --------------------------------
	h := stats.Mix64(k.Setting.Hash() ^ sim.Seed)
	u := float64(h>>11) / float64(1<<53)
	totalNS *= 1 + sim.NoiseAmp*(2*u-1)

	return model{
		computeNS: computeNS, memNS: memNS, smemNS: smemNS, syncNS: syncNS,
		totalNS: totalNS, dramBytes: dramBytes, l2Hit: l2Hit,
		coalEff: coalEff, waves: waves, ilp: ilp,
		loadBytes: loadBytes, storeBytes: storeBytes, points: points,
		timeMS: totalNS / 1e6,
	}
}

// coalescingEfficiency models the fraction of fetched DRAM sectors that
// carry useful data for one warp-wide access: full-width unit-stride rows
// are perfect; narrow TBx wastes 128B L1 lines across rows, and block
// merging in the innermost dimension strides the warp (paper Sec. II-B2).
func coalescingEfficiency(k *kernel.Kernel) float64 {
	tbx := k.Setting[space.TBX]
	bmx := k.Setting[space.BMX]

	threadsPerRow := tbx
	if threadsPerRow > 32 {
		threadsPerRow = 32
	}
	rows := (32 + threadsPerRow - 1) / threadsPerRow
	const line = 128.0
	useful := 32 * 8.0 // bytes a warp actually consumes per access
	linesBase := math.Ceil(float64(threadsPerRow) * 8 / line)
	rowSpan := float64(threadsPerRow) * float64(bmx) * 8
	linesRow := math.Ceil(rowSpan / line)
	// Half of the over-fetch from block merging is recovered from L1 by
	// the later accesses of the same warp.
	touched := float64(rows) * (linesBase + 0.5*(linesRow-linesBase)) * line
	eff := useful / touched
	if eff > 1 {
		eff = 1
	}
	// Floor: L2 sector buffering recovers part of even fully-strided
	// access patterns, so efficiency never collapses below 20%.
	if eff < 0.2 {
		eff = 0.2
	}
	return eff
}

// l2HitRate estimates how much of the *extra* (non-compulsory) traffic —
// halo re-reads between neighbouring blocks — is served by the L2, which
// depends on whether a wave's combined footprint fits.
func (sim *Simulator) l2HitRate(k *kernel.Kernel) float64 {
	a := sim.Arch
	blockPoints := float64(k.ThreadsPerBlock * k.PointsPerThread)
	blockBytes := blockPoints * float64(k.Stencil.Inputs+k.Stencil.Outputs) * 8
	waveBytes := blockBytes * float64(k.Occ.BlocksPerSM*a.SMs)
	ratio := waveBytes / float64(a.L2Bytes)
	// 0.9 when the wave fits in half the L2, decaying to 0.15 at 8x.
	hit := 0.9 - 0.1*math.Log2(math.Max(ratio*2, 1))
	return clamp(hit, 0.15, 0.9)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
