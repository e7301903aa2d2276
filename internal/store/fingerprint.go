package store

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// Composite keys. A stored measurement is addressed by
//
//	<arch fingerprint>|<shape fingerprint>|<setting key>
//
// where the first two parts are content fingerprints — not just names — so
// two differently-parameterized models that happen to share a name never
// alias, and '|' is reserved as the separator (names are sanitized). The
// setting key is space.Setting.Key(), which is already canonical: sorted
// parameter names joined by commas.

// sanitize replaces the reserved separator and whitespace in a free-form
// name so fingerprints stay splittable.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '|', ' ', '\n', '\t', '\r':
			return '_'
		}
		return r
	}, name)
}

// ArchFingerprint identifies a GPU model by the parameters that shape
// measured times: the occupancy-calculator limits, memory sizes and
// throughput/latency constants. Two arch values agreeing on all of these
// produce identical simulated measurements, so sharing their results is
// sound by construction.
func ArchFingerprint(a *gpu.Arch) string {
	if a == nil {
		return "arch:nil"
	}
	return fmt.Sprintf(
		"arch:%s;sm=%d,%d;lim=%d,%d,%d,%d,%d,%d;mem=%d,%d,%d,%d;thr=%g,%d,%g,%g,%g;lat=%g,%g,%g",
		sanitize(a.Name),
		a.SMs, a.WarpSize,
		a.MaxThreadsPerSM, a.MaxBlocksPerSM, a.MaxWarpsPerSM,
		a.RegistersPerSM, a.MaxRegsPerThread, a.SpillRegsPerThread,
		a.SharedMemPerSM, a.SharedMemPerBlock, a.L2Bytes, a.ConstantBytes,
		a.ClockGHz, a.FP64PerSM, a.DRAMBandwidthGB, a.L2BandwidthGB, a.SharedBWPerSMGB,
		a.DRAMLatencyNS, a.BarrierCostNS, a.LaunchOverheadUS,
	)
}

// ShapeFingerprint identifies a stencil computation by everything that
// shapes its data movement and arithmetic: grid extents, order, FLOPs,
// array counts, coefficient count and a digest of the full tap pattern.
func ShapeFingerprint(st *stencil.Stencil) string {
	if st == nil {
		return "shape:nil"
	}
	taps := make([]byte, 0, 40*len(st.Taps))
	for _, t := range st.Taps {
		// Coefficients scale arithmetic, not time-shaping structure, but
		// fold their bits in anyway: cheaper than arguing they never matter.
		for _, v := range []int{t.Array, t.DX, t.DY, t.DZ, int(int64(t.Coeff * 1e9))} {
			taps = binary.LittleEndian.AppendUint64(taps, uint64(v))
		}
	}
	h := stats.KeyHash(taps)
	return fmt.Sprintf(
		"shape:%s;grid=%dx%dx%d;ord=%d;flops=%d;io=%d+%d;coef=%d;taps=%d,%016x",
		sanitize(st.Name),
		st.NX, st.NY, st.NZ, st.Order, st.FLOPs,
		st.Inputs, st.Outputs, st.Coeffs, len(st.Taps), h,
	)
}

// Prefix joins arch and shape fingerprints into the engine's per-campaign
// key prefix; the engine appends "|" + setting key to form the composite.
func Prefix(archFP, shapeFP string) string {
	return archFP + "|" + shapeFP + "|"
}

// Key forms a full composite key.
func Key(archFP, shapeFP, settingKey string) string {
	return archFP + "|" + shapeFP + "|" + settingKey
}

// SplitKey splits a composite key back into its parts.
func SplitKey(key string) (archFP, shapeFP, settingKey string, ok bool) {
	i := strings.Index(key, "|")
	if i < 0 {
		return "", "", "", false
	}
	j := strings.Index(key[i+1:], "|")
	if j < 0 {
		return "", "", "", false
	}
	return key[:i], key[i+1 : i+1+j], key[i+1+j+1:], true
}
