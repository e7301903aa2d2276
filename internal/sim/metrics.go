package sim

import (
	"math"
	"sort"

	"repro/internal/kernel"
)

// MetricNames returns the Nsight-Compute-style metric identifiers the
// simulator reports, in stable sorted order. The csTuner pipeline's metric
// combination stage (Algorithm 2) consumes these exactly as it would consume
// `ncu --csv` output.
func MetricNames() []string {
	names := make([]string, 0, len(metricDoc))
	for n := range metricDoc {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDoc maps metric name to a short description (kept for docs/tools).
var metricDoc = map[string]string{
	"gpu__time_duration":           "kernel time (ns)",
	"sm__throughput_pct":           "SM busy fraction, % of peak",
	"sm__occupancy_achieved":       "achieved occupancy [0,1]",
	"sm__warps_active":             "resident warps per SM",
	"sm__inst_issued_ipc":          "instructions issued per cycle per SM",
	"sm__pipe_fp64_active_pct":     "FP64 pipe utilization, %",
	"dram__throughput_pct":         "DRAM bandwidth utilization, %",
	"dram__bytes":                  "total DRAM traffic (bytes)",
	"lts__hit_rate_pct":            "L2 hit rate for reusable traffic, %",
	"l1tex__hit_rate_pct":          "L1/tex hit rate implied by register/smem reuse, %",
	"l1tex__coalescing_pct":        "global load efficiency (useful/fetched), %",
	"smsp__branch_efficiency":      "non-divergent thread fraction, %",
	"smsp__barrier_stall_pct":      "issue stalls at barriers, %",
	"launch__registers_per_thread": "registers per thread",
	"launch__shared_mem_per_block": "static+dynamic shared memory per block (bytes)",
	"launch__waves_per_sm":         "waves of blocks per SM",
	"launch__grid_blocks":          "blocks launched",
	"shared__utilization_pct":      "shared-memory bandwidth utilization, %",
	"flop__dp_efficiency_pct":      "achieved FP64 FLOPs vs peak, %",
	"memory__ilp":                  "memory-level parallelism factor",
}

// metrics builds the per-run metric report from one evaluation of the model.
func (sim *Simulator) metrics(k *kernel.Kernel, in *model) map[string]float64 {
	a := sim.Arch
	st := k.Stencil

	busy := math.Max(in.computeNS, math.Max(in.memNS, in.smemNS))
	smPct := 100 * in.computeNS / in.totalNS
	dramPct := 100 * (in.dramBytes / in.totalNS) / a.DRAMBandwidthGB

	// L1 hit rate: the naive kernel would issue UniqueOffsets loads per
	// point; register/shared reuse removes (1 - Loads/naive) of them, which
	// Nsight observes as L1/tex hits. k was built in sim.Sp, which keeps
	// the count.
	naive := float64(sim.Sp.UniqueOffsets())
	l1 := 100 * (1 - k.LoadsPerPoint/naive)
	if l1 < 0 {
		l1 = 0
	}

	totalFLOPs := float64(st.Points()) * float64(st.FLOPs)
	flopEff := 100 * (totalFLOPs / in.totalNS) / a.PeakFP64GFLOPS()

	ipc := (in.points * k.InstrPerPoint) / (in.totalNS * a.ClockGHz * float64(a.SMs))

	sharedPct := 0.0
	if in.smemNS > 0 {
		sharedPct = 100 * in.smemNS / in.totalNS
	}

	return map[string]float64{
		"gpu__time_duration":           in.totalNS,
		"sm__throughput_pct":           clamp(smPct, 0, 100),
		"sm__occupancy_achieved":       k.Occ.Achieved,
		"sm__warps_active":             float64(k.Occ.WarpsPerSM),
		"sm__inst_issued_ipc":          ipc,
		"sm__pipe_fp64_active_pct":     clamp(100*in.computeNS/busy, 0, 100),
		"dram__throughput_pct":         clamp(dramPct, 0, 100),
		"dram__bytes":                  in.dramBytes,
		"lts__hit_rate_pct":            100 * in.l2Hit,
		"l1tex__hit_rate_pct":          clamp(l1, 0, 100),
		"l1tex__coalescing_pct":        100 * in.coalEff,
		"smsp__branch_efficiency":      100 * k.GuardFrac,
		"smsp__barrier_stall_pct":      clamp(100*in.syncNS/in.totalNS, 0, 100),
		"launch__registers_per_thread": float64(k.RegsPerThread),
		"launch__shared_mem_per_block": float64(k.SharedPerBlock),
		"launch__waves_per_sm":         in.waves,
		"launch__grid_blocks":          float64(k.GridBlocks),
		"shared__utilization_pct":      clamp(sharedPct, 0, 100),
		"flop__dp_efficiency_pct":      clamp(flopEff, 0, 100),
		"memory__ilp":                  in.ilp,
	}
}
