// Package cpu realizes the paper's remaining future-work claim (Sec. VII):
// "we would also like to extend csTuner to support other hardware such as
// CPU ... we only need to adjust the optimization space according to the
// target hardware and then parameterize the optimization space into tuning
// options."
//
// It models an OpenMP-style stencil kernel on a multicore CPU — the paper's
// own host processor, a Xeon E5-2680 v4 (Table II), is the default — over a
// custom optimization space (thread count, 3-D cache-blocking tiles, SIMD
// vectorization, inner unrolling) with an analytical roofline model, and
// exposes it through the same sim.Objective surface the GPU simulator uses,
// so the unmodified csTuner pipeline tunes it.
package cpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// Arch describes a multicore CPU at roofline fidelity.
type Arch struct {
	Name     string
	Cores    int
	ClockGHz float64
	// SIMDDoubles is the vector width in float64 lanes (AVX2 = 4).
	SIMDDoubles int
	// FMAPorts is the number of FMA pipes per core.
	FMAPorts int

	L1Bytes int // per core
	L2Bytes int // per core
	L3Bytes int // shared

	DRAMBandwidthGB float64
	// ThreadSpawnUS is the parallel-region fork/join overhead.
	ThreadSpawnUS float64
}

// XeonE52680v4 returns the paper's host CPU (Table II): 14 Broadwell cores
// at 2.4 GHz with AVX2.
func XeonE52680v4() *Arch {
	return &Arch{
		Name:            "Xeon E5-2680 v4",
		Cores:           14,
		ClockGHz:        2.4,
		SIMDDoubles:     4,
		FMAPorts:        2,
		L1Bytes:         32 << 10,
		L2Bytes:         256 << 10,
		L3Bytes:         35 << 20,
		DRAMBandwidthGB: 76.8,
		ThreadSpawnUS:   8,
	}
}

// PeakFP64GFLOPS returns the all-core double-precision peak.
func (a *Arch) PeakFP64GFLOPS() float64 {
	return float64(a.Cores) * a.ClockGHz * float64(a.SIMDDoubles) * float64(a.FMAPorts) * 2
}

// Parameter indices of the CPU optimization space.
const (
	Threads = iota // OpenMP threads
	TX             // cache-block tile extents
	TY
	TZ
	Vectorize // {1,2}: explicit SIMD vectorization of the x loop
	UnrollX   // inner-loop unroll factor
	NumParams
)

// Workload is one stencil on one CPU.
type Workload struct {
	Stencil *stencil.Stencil
	Arch    *Arch
	sp      *space.Space

	NoiseAmp float64
	Seed     uint64
}

// New builds the workload and its optimization space.
func New(st *stencil.Stencil, arch *Arch) (*Workload, error) {
	if st == nil {
		return nil, fmt.Errorf("cpu: nil stencil")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if arch == nil {
		return nil, fmt.Errorf("cpu: nil architecture")
	}
	w := &Workload{Stencil: st, Arch: arch, NoiseAmp: 0.02, Seed: 0xc0de}

	threadVals := stats.Pow2sUpTo(stats.NextPow2(2 * arch.Cores))
	params := []space.Param{
		{Name: "Threads", Kind: space.KindPow2, Values: threadVals},
		{Name: "TX", Kind: space.KindPow2, Values: stats.Pow2sUpTo(st.NX)},
		{Name: "TY", Kind: space.KindPow2, Values: stats.Pow2sUpTo(st.NY)},
		{Name: "TZ", Kind: space.KindPow2, Values: stats.Pow2sUpTo(st.NZ)},
		{Name: "Vectorize", Kind: space.KindBool, Values: []int{space.Off, space.On}},
		{Name: "UnrollX", Kind: space.KindPow2, Values: stats.Pow2sUpTo(8), Biased: true},
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

// defaultSetting: all cores, full-row x tiles, modest y/z blocking — the
// typical hand-written OpenMP starting point.
func (w *Workload) defaultSetting() space.Setting {
	tz := 4
	if tz > w.Stencil.NZ {
		tz = w.Stencil.NZ
	}
	return space.Setting{
		stats.NextPow2(w.Arch.Cores), lastPow2(w.Stencil.NX), minInt(16, w.Stencil.NY), tz,
		space.Off, 1,
	}
}

// lastPow2 returns the largest power of two <= v (v >= 1).
func lastPow2(v int) int {
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// validate enforces the explicit constraints: the unroll factor cannot
// exceed the x tile, and a tile must hold at least one SIMD vector when
// vectorization is on.
func (w *Workload) validate(s space.Setting) error {
	if s[UnrollX] > s[TX] {
		return fmt.Errorf("%w: UnrollX %d exceeds TX %d", space.ErrInvalid, s[UnrollX], s[TX])
	}
	if s[Vectorize] == space.On && s[TX] < w.Arch.SIMDDoubles {
		return fmt.Errorf("%w: TX %d below SIMD width", space.ErrInvalid, s[TX])
	}
	return nil
}

func (w *Workload) repair(s space.Setting, rng *stats.Rand) {
	for s[UnrollX] > s[TX] {
		s[UnrollX] >>= 1
	}
	if s[Vectorize] == space.On && s[TX] < w.Arch.SIMDDoubles {
		s[Vectorize] = space.Off
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

// Run implements dataset.Runner: one sweep's time plus a metric report.
func (w *Workload) Run(s space.Setting) (*sim.Result, error) {
	if err := w.sp.Validate(s); err != nil {
		return nil, err
	}
	a := w.Arch
	st := w.Stencil

	threads := s[Threads]
	activeCores := float64(threads)
	oversub := 1.0
	if threads > a.Cores {
		activeCores = float64(a.Cores)
		// Context-switch and hyper-thread contention grow with the
		// oversubscription ratio.
		oversub = 1 + 0.1*float64(threads)/float64(a.Cores)
	}

	// ---- Compute term ----------------------------------------------------
	flops := float64(st.TotalFLOPs())
	simd := 1.0
	if s[Vectorize] == space.On {
		// Real stencil loops never reach the full SIMD factor: unaligned
		// halo loads and shuffles eat part of it; unrolling recovers some.
		simd = 0.55 * float64(a.SIMDDoubles) * (1 + 0.08*math.Log2(float64(s[UnrollX])))
		if simd > float64(a.SIMDDoubles) {
			simd = float64(a.SIMDDoubles)
		}
	} else {
		simd = 1 + 0.1*math.Log2(float64(s[UnrollX])) // scalar ILP only
	}
	scalarRate := activeCores * a.ClockGHz * float64(a.FMAPorts) * 2 // scalar FLOPs/ns
	computeNS := flops * oversub / (scalarRate * simd)

	// ---- Memory term -----------------------------------------------------
	// Cache blocking: a tile whose working set fits L2 reads each input
	// cell once per tile; the halo amplifies traffic as tiles shrink.
	tileCells := float64(s[TX] * s[TY] * s[TZ])
	tileBytes := tileCells * float64(st.Inputs+st.Outputs) * 8
	halo := st.HaloVolume(s[TX], s[TY], s[TZ])
	var amplification float64
	switch {
	case tileBytes <= float64(a.L2Bytes):
		amplification = halo // per-core L2 captures the tile
	case tileBytes*float64(threadsClamped(threads, a)) <= float64(a.L3Bytes):
		amplification = halo * 1.15 // spills to shared L3
	default:
		// The tile streams through cache: every tap re-reads DRAM.
		amplification = float64(st.UniqueOffsets()) / float64(st.Inputs+st.Outputs) * 2
		if amplification < halo {
			amplification = halo
		}
	}
	bytes := float64(st.BytesMoved()) * amplification
	memNS := bytes / a.DRAMBandwidthGB

	// ---- Parallel overhead -------------------------------------------------
	tiles := math.Ceil(float64(st.NX)/float64(s[TX])) *
		math.Ceil(float64(st.NY)/float64(s[TY])) *
		math.Ceil(float64(st.NZ)/float64(s[TZ]))
	schedNS := a.ThreadSpawnUS*1000 + tiles*40/activeCores // per-tile loop+sched cost
	if tiles < activeCores {
		// Too few tiles to feed every core.
		shortfall := activeCores / math.Max(tiles, 1)
		computeNS *= shortfall
		memNS *= math.Min(shortfall, 2)
	}

	// Oversubscription also thrashes the caches, so the memory path pays
	// the same contention factor.
	totalNS := math.Max(computeNS, memNS*oversub) + schedNS

	h := stats.Mix64(s.Hash() ^ w.Seed)
	u := float64(h>>11) / float64(1<<53)
	totalNS *= 1 + w.NoiseAmp*(2*u-1)

	timeMS := totalNS / 1e6
	return &sim.Result{
		TimeMS: timeMS,
		Metrics: map[string]float64{
			"cpu__time_duration":      totalNS,
			"cpu__threads":            float64(threads),
			"cpu__simd_factor":        simd,
			"cpu__traffic_bytes":      bytes,
			"cpu__traffic_amp":        amplification,
			"cpu__dram_pct":           clampPct(100 * bytes / totalNS / a.DRAMBandwidthGB),
			"cpu__flops_pct":          clampPct(100 * flops / totalNS / a.PeakFP64GFLOPS()),
			"cpu__tiles":              tiles,
			"cpu__sched_overhead_pct": clampPct(100 * schedNS / totalNS),
		},
	}, nil
}

func threadsClamped(threads int, a *Arch) int {
	if threads > a.Cores {
		return a.Cores
	}
	return threads
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
