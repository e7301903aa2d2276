// Package gemm demonstrates csTuner's generality beyond stencils — the
// paper's stated future work ("we would like to apply csTuner to other
// domains with even larger search space, e.g. tensor optimizations in deep
// learning", Sec. VII). It defines a tiled double-precision GEMM kernel
// family over a custom optimization space (block tiles, thread tiles,
// split-K, vectorized loads, shared-memory double buffering) with an
// analytical performance model on the same GPU architectures, and exposes it
// through the identical sim.Objective surface, so the unmodified csTuner
// pipeline tunes it end-to-end.
package gemm

import (
	"fmt"
	"math"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
)

// Parameter indices of the GEMM optimization space.
const (
	BM        = iota // block tile rows of C
	BN               // block tile cols of C
	BK               // K-slab depth staged per iteration
	TM               // thread tile rows
	TN               // thread tile cols
	VecWidth         // vectorized global load width (doubles per instruction)
	DoubleBuf        // {1,2}: shared-memory double buffering
	SplitK           // K split across concurrent blocks with reduction
	NumParams
)

// Workload is a GEMM problem C[M×N] += A[M×K]·B[K×N] on one architecture.
type Workload struct {
	M, N, K int
	Arch    *gpu.Arch
	sp      *space.Space

	// NoiseAmp matches the stencil simulator's measurement noise.
	NoiseAmp float64
	Seed     uint64
}

// New builds the workload and its custom optimization space.
func New(m, n, k int, arch *gpu.Arch) (*Workload, error) {
	if m <= 0 || n <= 0 || k <= 0 {
		return nil, fmt.Errorf("gemm: non-positive problem %dx%dx%d", m, n, k)
	}
	if arch == nil {
		return nil, fmt.Errorf("gemm: nil architecture")
	}
	w := &Workload{M: m, N: n, K: k, Arch: arch, NoiseAmp: 0.02, Seed: 0x9e44}

	pow2 := func(lo, hi int) []int {
		var out []int
		for v := lo; v <= hi; v <<= 1 {
			out = append(out, v)
		}
		return out
	}
	params := []space.Param{
		{Name: "BM", Kind: space.KindPow2, Values: pow2(16, 256)},
		{Name: "BN", Kind: space.KindPow2, Values: pow2(16, 256)},
		{Name: "BK", Kind: space.KindPow2, Values: pow2(4, 64)},
		{Name: "TM", Kind: space.KindPow2, Values: pow2(1, 16), Biased: true},
		{Name: "TN", Kind: space.KindPow2, Values: pow2(1, 16), Biased: true},
		{Name: "Vec", Kind: space.KindPow2, Values: pow2(1, 4)},
		{Name: "DoubleBuf", Kind: space.KindBool, Values: []int{space.Off, space.On}},
		{Name: "SplitK", Kind: space.KindPow2, Values: pow2(1, 16), Biased: true},
	}
	sp, err := space.NewCustom(params, w.validate, w.repair, w.defaultSetting)
	if err != nil {
		return nil, err
	}
	w.sp = sp
	return w, nil
}

// Space implements sim.Objective.
func (w *Workload) Space() *space.Space { return w.sp }

// defaultSetting is the canonical untuned configuration: 64×64 block tile,
// 4×4 thread tile, no extras — 256 threads.
func (w *Workload) defaultSetting() space.Setting {
	return space.Setting{64, 64, 8, 4, 4, 1, space.Off, 1}
}

// validate enforces the explicit cross-parameter constraints.
func (w *Workload) validate(s space.Setting) error {
	threads := s[BM] / s[TM] * (s[BN] / s[TN])
	if s[TM] > s[BM] || s[TN] > s[BN] {
		return fmt.Errorf("%w: thread tile exceeds block tile", space.ErrInvalid)
	}
	if threads > 1024 {
		return fmt.Errorf("%w: %d threads exceed 1024", space.ErrInvalid, threads)
	}
	if threads < w.Arch.WarpSize {
		return fmt.Errorf("%w: %d threads below one warp", space.ErrInvalid, threads)
	}
	// A vectorized load must divide the K slab.
	if s[VecWidth] > s[BK] {
		return fmt.Errorf("%w: vector width exceeds BK", space.ErrInvalid)
	}
	if s[SplitK] > w.K/s[BK] {
		return fmt.Errorf("%w: SplitK %d exceeds K/BK", space.ErrInvalid, s[SplitK])
	}
	return nil
}

// repair canonicalizes a raw draw: clamp the thread-tile and SplitK factors
// down until the structural rules hold.
func (w *Workload) repair(s space.Setting, rng *stats.Rand) {
	for s[TM] > s[BM] {
		s[TM] >>= 1
	}
	for s[TN] > s[BN] {
		s[TN] >>= 1
	}
	for s[BM]/s[TM]*(s[BN]/s[TN]) > 1024 {
		if s[TM] < s[TN] {
			s[TM] <<= 1
		} else {
			s[TN] <<= 1
		}
	}
	for s[BM]/s[TM]*(s[BN]/s[TN]) < w.Arch.WarpSize && (s[TM] > 1 || s[TN] > 1) {
		if s[TM] > 1 {
			s[TM] >>= 1
		} else {
			s[TN] >>= 1
		}
	}
	for s[VecWidth] > s[BK] {
		s[VecWidth] >>= 1
	}
	for s[SplitK] > 1 && s[SplitK] > w.K/s[BK] {
		s[SplitK] >>= 1
	}
}

// Measure implements sim.Objective.
func (w *Workload) Measure(s space.Setting) (float64, error) {
	r, err := w.Run(s)
	if err != nil {
		return 0, err
	}
	return r.TimeMS, nil
}

// Run implements dataset.Runner: kernel time plus a metric report (the
// Result's Kernel field is nil — there is no stencil kernel here).
func (w *Workload) Run(s space.Setting) (*sim.Result, error) {
	if err := w.sp.Validate(s); err != nil {
		return nil, err
	}
	a := w.Arch

	threads := s[BM] / s[TM] * (s[BN] / s[TN])
	// Registers: the TM×TN accumulator tile dominates (2 regs per double),
	// plus A/B fragments and indexing.
	regs := 24 + 2*s[TM]*s[TN] + 2*(s[TM]+s[TN])
	if s[DoubleBuf] == space.On {
		regs += s[TM] + s[TN]
	}
	if regs > a.SpillRegsPerThread {
		return nil, fmt.Errorf("gemm: %d registers/thread would spill", regs)
	}
	// Shared memory: A and B slabs, doubled when double buffering.
	smem := (s[BM]*s[BK] + s[BK]*s[BN]) * 8
	if s[DoubleBuf] == space.On {
		smem *= 2
	}
	if smem > a.SharedMemPerBlock {
		return nil, fmt.Errorf("gemm: %dB shared memory exceeds block max", smem)
	}
	occ, err := a.ComputeOccupancy(threads, regs, smem)
	if err != nil {
		return nil, fmt.Errorf("gemm: %w", err)
	}

	blocks := ceil(w.M, s[BM]) * ceil(w.N, s[BN]) * s[SplitK]
	waves := float64(blocks) / float64(occ.BlocksPerSM*a.SMs)
	tail := math.Ceil(waves) / waves

	// Compute: 2MNK FLOPs; FMA throughput discounted by occupancy and
	// boosted by the ILP of larger thread tiles.
	flops := 2 * float64(w.M) * float64(w.N) * float64(w.K)
	ilp := 1 + 0.1*math.Log2(float64(s[TM]*s[TN]))
	if ilp > 1.6 {
		ilp = 1.6
	}
	// ILP recovers issue slots lost to low occupancy; it can approach but
	// never exceed the architectural peak.
	occFactor := math.Min(1, float64(occ.WarpsPerSM)/8)
	eff := math.Min(0.93, occFactor*ilp) // 93%: LD/ST and index instructions steal issue slots
	computeNS := flops / (a.PeakFP64GFLOPS() * eff)

	// Memory: every block reads BM×K of A and K×BN of B once per split
	// slab; tiling reuse divides compulsory traffic by the tile extents.
	bytesA := float64(w.M) * float64(w.K) * 8 * float64(ceil(w.N, s[BN]))
	bytesB := float64(w.K) * float64(w.N) * 8 * float64(ceil(w.M, s[BM]))
	bytesC := float64(w.M) * float64(w.N) * 8 * float64(s[SplitK]) // split-K reduces through memory
	vecEff := 0.7 + 0.1*float64(s[VecWidth])                       // wider loads use more of each sector
	if vecEff > 1 {
		vecEff = 1
	}
	memNS := (bytesA + bytesB + bytesC) / (a.DRAMBandwidthGB * vecEff)

	// Double buffering overlaps the staging latency with compute;
	// without it every BK slab pays a barrier plus load latency.
	kIters := float64(ceil(w.K/s[SplitK], s[BK]))
	syncNS := kIters * a.BarrierCostNS * math.Ceil(waves)
	if s[DoubleBuf] == space.On {
		syncNS *= 0.35
	}

	totalNS := a.LaunchOverheadUS*1000 + math.Max(computeNS, memNS)*tail + syncNS

	h := stats.Mix64(s.Hash() ^ w.Seed)
	u := float64(h>>11) / float64(1<<53)
	totalNS *= 1 + w.NoiseAmp*(2*u-1)

	timeMS := totalNS / 1e6
	return &sim.Result{
		TimeMS: timeMS,
		Metrics: map[string]float64{
			"gpu__time_duration":           totalNS,
			"sm__occupancy_achieved":       occ.Achieved,
			"sm__warps_active":             float64(occ.WarpsPerSM),
			"launch__registers_per_thread": float64(regs),
			"launch__shared_mem_per_block": float64(smem),
			"launch__grid_blocks":          float64(blocks),
			"launch__waves_per_sm":         waves,
			"flop__dp_efficiency_pct":      clampPct(100 * flops / totalNS / a.PeakFP64GFLOPS()),
			"dram__throughput_pct":         clampPct(100 * (bytesA + bytesB + bytesC) / totalNS / a.DRAMBandwidthGB),
			"smsp__barrier_stall_pct":      clampPct(100 * syncNS / totalNS),
			"memory__ilp":                  ilp,
		},
	}, nil
}

func ceil(a, b int) int { return (a + b - 1) / b }

func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}
