// Package temporal extends the optimization space with high-degree temporal
// blocking — the headline technique of AN5D (Matsumura et al., CGO'20), the
// stencil framework the paper benchmarks its ideas against — realizing the
// future-work claim "extend csTuner to support auto-tuning of more
// optimization techniques for complex stencils" (Sec. VII).
//
// A temporally-blocked kernel advances the stencil T time steps per kernel
// launch instead of one: DRAM traffic drops by ~T because intermediate
// steps live in on-chip storage, at the price of redundant halo computation
// (the famous trapezoid/overlapped-tiling overhead), extra registers and
// shared memory per in-flight step, and reduced parallel slack. Whether a
// degree pays off depends on the stencil's order, arithmetic intensity and
// tile shape — precisely the kind of coupled tradeoff csTuner exists to
// search. The package wraps the existing GPU simulator with a custom space
// of {thread-block shape, spatial tile, temporal degree, storage choice}.
package temporal

import (
	"fmt"
	"math"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// Parameter indices of the temporal-blocking optimization space.
const (
	TBX     = iota // thread-block extent X
	TBY            // thread-block extent Y
	TileZ          // spatial streaming tile depth
	Degree         // temporal blocking degree T (time steps per launch)
	Storage        // {1,2}: intermediate steps in registers (1) or shared memory (2)
	NumParams
)

// Workload is a time-iterated stencil (TotalSteps sweeps) on a GPU.
type Workload struct {
	Stencil *stencil.Stencil
	Arch    *gpu.Arch
	// TotalSteps is the number of time steps the application needs; the
	// paper's motivating simulations run hundreds.
	TotalSteps int

	sp       *space.Space
	NoiseAmp float64
	Seed     uint64
}

// New builds the workload and its optimization space.
func New(st *stencil.Stencil, arch *gpu.Arch, totalSteps int) (*Workload, error) {
	if st == nil {
		return nil, fmt.Errorf("temporal: nil stencil")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if arch == nil {
		return nil, fmt.Errorf("temporal: nil architecture")
	}
	if totalSteps < 1 {
		return nil, fmt.Errorf("temporal: non-positive step count %d", totalSteps)
	}
	w := &Workload{Stencil: st, Arch: arch, TotalSteps: totalSteps, NoiseAmp: 0.02, Seed: 0x7e3b}

	params := []space.Param{
		{Name: "TBx", Kind: space.KindPow2, Values: stats.Pow2sUpTo(min(256, st.NX))},
		{Name: "TBy", Kind: space.KindPow2, Values: stats.Pow2sUpTo(min(32, st.NY))},
		{Name: "TileZ", Kind: space.KindPow2, Values: stats.Pow2sUpTo(st.NZ)},
		{Name: "Degree", Kind: space.KindPow2, Values: stats.Pow2sUpTo(8), Biased: true},
		{Name: "Storage", Kind: space.KindBool, Values: []int{space.Off, space.On}},
	}
	sp, err := space.NewCustom(params, w.validate, w.repair, w.defaultSetting)
	if err != nil {
		return nil, err
	}
	w.sp = sp
	return w, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Space implements sim.Objective.
func (w *Workload) Space() *space.Space { return w.sp }

// defaultSetting: a classic 32×8 block streaming 64-deep, no temporal
// blocking — the strongest non-temporal baseline.
func (w *Workload) defaultSetting() space.Setting {
	return space.Setting{32, 8, min(64, w.Stencil.NZ), 1, space.Off}
}

// validate: warp-width blocks, degree bounded by the tile (the trapezoid
// must fit), and a degree above 1 needs somewhere to keep intermediates.
func (w *Workload) validate(s space.Setting) error {
	threads := s[TBX] * s[TBY]
	if threads > 1024 {
		return fmt.Errorf("%w: %d threads exceed 1024", space.ErrInvalid, threads)
	}
	if threads < w.Arch.WarpSize {
		return fmt.Errorf("%w: %d threads below one warp", space.ErrInvalid, threads)
	}
	// The shrinking trapezoid consumes 2·order cells of tile depth per
	// time step; the tile must survive all Degree steps.
	if need := 2 * w.Stencil.Order * s[Degree]; s[TileZ] <= need && s[Degree] > 1 {
		return fmt.Errorf("%w: TileZ %d cannot host degree %d (needs > %d)",
			space.ErrInvalid, s[TileZ], s[Degree], need)
	}
	return nil
}

func (w *Workload) repair(s space.Setting, rng *stats.Rand) {
	for s[TBX]*s[TBY] > 1024 {
		if s[TBX] >= s[TBY] {
			s[TBX] >>= 1
		} else {
			s[TBY] >>= 1
		}
	}
	for s[TBX]*s[TBY] < w.Arch.WarpSize {
		s[TBX] <<= 1
	}
	for s[Degree] > 1 && s[TileZ] <= 2*w.Stencil.Order*s[Degree] {
		s[Degree] >>= 1
	}
}

// Measure implements sim.Objective: the time for all TotalSteps sweeps, in
// milliseconds.
func (w *Workload) Measure(s space.Setting) (float64, error) {
	r, err := w.Run(s)
	if err != nil {
		return 0, err
	}
	return r.TimeMS, nil
}

// Run implements dataset.Runner.
func (w *Workload) Run(s space.Setting) (*sim.Result, error) {
	if err := w.sp.Validate(s); err != nil {
		return nil, err
	}
	a := w.Arch
	st := w.Stencil
	deg := float64(s[Degree])

	// ---- Resources per in-flight time step -------------------------------
	// Each live step keeps a working plane set; registers and shared memory
	// scale with the degree and the storage choice.
	regs := 28 + 2*st.Inputs
	smem := 0
	h := 2 * st.Order
	planeCells := (s[TBX] + h) * (s[TBY] + h)
	if s[Storage] == space.On {
		// Shared-memory intermediates: (2·order+1) planes per live step.
		smem = planeCells * (h + 1) * int(deg) * 8
		regs += 8
	} else {
		// Register intermediates: the per-thread column of live values.
		regs += 2 * (h + 1) * int(deg) * starFrac(st)
	}
	if regs > a.SpillRegsPerThread {
		return nil, fmt.Errorf("temporal: %d registers/thread would spill", regs)
	}
	if smem > a.SharedMemPerBlock {
		return nil, fmt.Errorf("temporal: %dB shared memory exceeds block max", smem)
	}
	threads := s[TBX] * s[TBY]
	occ, err := a.ComputeOccupancy(threads, regs, smem)
	if err != nil {
		return nil, fmt.Errorf("temporal: %w", err)
	}

	// ---- Work amplification: the overlapped-tiling trapezoid -------------
	// Every time step shrinks the valid tile by 2·order along x and y, so
	// blocks recompute a halo collar that grows with the degree.
	redo := trapezoidOverhead(float64(s[TBX]), float64(st.Order), deg) *
		trapezoidOverhead(float64(s[TBY]), float64(st.Order), deg)

	points := float64(st.Points())
	launches := math.Ceil(float64(w.TotalSteps) / deg)

	// ---- Compute term -----------------------------------------------------
	flopsPerLaunch := points * float64(st.FLOPs) * deg * redo
	instRate := float64(a.SMs) * float64(a.FP64PerSM) * a.ClockGHz
	occCompute := math.Min(1, float64(occ.WarpsPerSM)/8)
	computeNS := flopsPerLaunch / (instRate * occCompute)

	// ---- Memory term ------------------------------------------------------
	// The whole point: DRAM sees the grid once per launch instead of once
	// per step.
	bytesPerLaunch := points * float64(st.Inputs+st.Outputs) * 8 * 1.1 // halo re-reads
	coal := math.Min(1, float64(min(s[TBX], 32))/32)
	if coal < 0.25 {
		coal = 0.25
	}
	memNS := bytesPerLaunch / (a.DRAMBandwidthGB * coal)

	// Streaming synchronization along the z walk.
	iters := math.Ceil(float64(st.NZ) / float64(s[TileZ]))
	syncNS := iters * deg * a.BarrierCostNS * 4

	launchNS := a.LaunchOverheadUS * 1000
	perLaunch := math.Max(computeNS, memNS) + syncNS + launchNS
	totalNS := perLaunch * launches

	hsh := stats.Mix64(s.Hash() ^ w.Seed)
	u := float64(hsh>>11) / float64(1<<53)
	totalNS *= 1 + w.NoiseAmp*(2*u-1)

	timeMS := totalNS / 1e6
	return &sim.Result{
		TimeMS: timeMS,
		Metrics: map[string]float64{
			"gpu__time_duration":           totalNS,
			"sm__occupancy_achieved":       occ.Achieved,
			"launch__registers_per_thread": float64(regs),
			"launch__shared_mem_per_block": float64(smem),
			"temporal__degree":             deg,
			"temporal__launches":           launches,
			"temporal__redundancy":         redo,
			"dram__bytes":                  bytesPerLaunch * launches,
			"flop__dp_efficiency_pct": clampPct(100 * points * float64(st.FLOPs) *
				float64(w.TotalSteps) / totalNS / a.PeakFP64GFLOPS()),
		},
	}, nil
}

// trapezoidOverhead returns the redundant-compute factor of overlapped
// tiling along one dimension: a tile of extent e computing T steps of an
// order-r stencil expands its read/compute footprint by r·(T−1) cells on
// each side.
func trapezoidOverhead(extent, order, deg float64) float64 {
	if deg <= 1 {
		return 1
	}
	return (extent + 2*order*(deg-1)) / extent
}

// starFrac scales register cost by how many arrays carry neighbour taps.
func starFrac(st *stencil.Stencil) int {
	n := 0
	seen := map[int]map[[3]int]struct{}{}
	for _, t := range st.Taps {
		m := seen[t.Array]
		if m == nil {
			m = map[[3]int]struct{}{}
			seen[t.Array] = m
		}
		m[[3]int{t.DX, t.DY, t.DZ}] = struct{}{}
	}
	for _, m := range seen {
		if len(m) > 1 {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}
