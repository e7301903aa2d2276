package space

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// footprintAxis bounds the log2 of a memoized cluster extent. An extent
// is a product of power-of-two unroll and merge factors of at most 64
// each, times 8 along a register-streaming window, so every extent a
// Table I setting forms is a power of two below 2^16.
const footprintAxis = 16

// footprints memoizes Stencil.Footprint for one space, indexed by the log2
// of the three cluster extents. A slot holds the count plus one, so 0 means
// not yet counted. Kernel builds on several goroutines may count one
// cluster at once; each stores the same value, so the race is benign and
// the atomics keep it free of data races.
type footprints [footprintAxis * footprintAxis * footprintAxis]atomic.Int32

// Footprint returns sp.Stencil.Footprint(ax, ay, az). For a space built by
// New and power-of-two extents it counts each cluster once and then reads
// the count from a memo that lives as long as the space; any other extent
// is counted on every call.
func (sp *Space) Footprint(ax, ay, az int) int {
	slot, ok := footprintSlot(ax, ay, az)
	if sp.footprints == nil || !ok {
		return sp.Stencil.Footprint(ax, ay, az)
	}
	f := &sp.footprints[slot]
	if v := f.Load(); v != 0 {
		return int(v - 1)
	}
	n := sp.Stencil.Footprint(ax, ay, az)
	if n < math.MaxInt32 {
		f.Store(int32(n + 1))
	}
	return n
}

// UniqueOffsets returns sp.Stencil.UniqueOffsets(). New counts it once per
// space; for a space built otherwise it is counted on every call.
func (sp *Space) UniqueOffsets() int {
	if sp.uniqueOffsets > 0 {
		return sp.uniqueOffsets
	}
	return sp.Stencil.UniqueOffsets()
}

// footprintSlot returns the memo slot of a cluster, or false when an extent
// is not a power of two below 2^footprintAxis.
func footprintSlot(ax, ay, az int) (int, bool) {
	slot := 0
	for _, e := range [3]int{ax, ay, az} {
		if e <= 0 || e&(e-1) != 0 {
			return 0, false
		}
		l := bits.TrailingZeros(uint(e))
		if l >= footprintAxis {
			return 0, false
		}
		slot = slot*footprintAxis + l
	}
	return slot, true
}
