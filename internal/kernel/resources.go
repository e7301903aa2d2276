package kernel

import (
	"math"

	"repro/internal/space"
	"repro/internal/stencil"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Register model constants. The absolute numbers are calibrated against
// ptxas resource reports for the PPoPP'18 stencil kernels; what matters for
// the tuner is the *shape*: pressure grows with merged points, live tap
// unions, and prefetch double-buffering, and shrinks with shared-memory
// staging and retiming.
const (
	baseRegs         = 18   // index arithmetic, loop counters, predicates
	regsPerPointer   = 2    // 64-bit global pointer
	regsPerFP64      = 2    // one double occupies two 32-bit registers
	livenessDiscount = 0.55 // scheduler reuse within the tap union
	livenessExponent = 0.9  // rematerialization saturates liveness sub-linearly
	retimingDiscount = 0.6  // register homogenization for order >= 2
)

// estimateResources fills RegsPerThread and SharedPerBlock and enforces the
// implicit constraints (spill-free registers, shared memory capacity). sp is
// the space of k.Stencil, and star is starArrays(k.Stencil).
func (k *Kernel) estimateResources(sp *space.Space, star int) error {
	st := k.Stencil
	arch := k.Arch

	regs := baseRegs + regsPerPointer*(st.Inputs+st.Outputs)

	// Accumulators: every in-flight merged point of every output array.
	adjPoints := k.AdjX * k.AdjY * k.AdjZ
	regs += regsPerFP64 * st.Outputs * adjPoints

	// Live input values.
	if k.UsesShared {
		// Neighbours come from shared memory; threads keep only the
		// handful of values in flight between smem loads and FMAs.
		regs += regsPerFP64 * (st.Inputs + 2)
	} else {
		union := sp.Footprint(k.AdjX, k.AdjY, k.AdjZ)
		live := livenessDiscount * pow(float64(union), livenessExponent)
		if k.Retiming && st.Order >= 2 {
			live *= retimingDiscount
		}
		regs += int(float64(regsPerFP64) * live)
	}

	// Prefetching double-buffers the next streaming plane in registers.
	if k.Prefetch {
		planeA, planeB := planeExtent(k)
		regs += regsPerFP64 * star * planeA * planeB
	}

	if regs > arch.SpillRegsPerThread {
		return &resourceError{reason: regSpill, a: regs, b: arch.SpillRegsPerThread}
	}
	k.RegsPerThread = regs

	// Shared memory: staged block tile plus halo for every array with
	// neighbour taps.
	if k.UsesShared {
		h := 2 * st.Order
		tx := k.Setting[space.TBX]*k.AdjX + h
		ty := k.Setting[space.TBY]*k.AdjY + h
		var tz int
		if k.Streaming {
			// Rolling window: the walked dimension keeps Adj+2*Order
			// planes resident; the two block extents orthogonal to it
			// replace the corresponding tile extents.
			switch k.SDim {
			case 1:
				tx = k.AdjX + h
			case 2:
				ty = k.AdjY + h
			case 3:
				// handled below: tz is the window
			}
			if k.SDim == 3 {
				tz = k.AdjZ + h
			} else {
				tz = k.Setting[space.TBZ]*k.AdjZ + h
			}
		} else {
			tz = k.Setting[space.TBZ]*k.AdjZ + h
		}
		bytes := tx * ty * tz * 8 * star
		if bytes > arch.SharedMemPerBlock {
			return &resourceError{reason: sharedMemory, a: bytes, b: arch.SharedMemPerBlock}
		}
		k.SharedPerBlock = bytes
	}
	return nil
}

// planeExtent returns the two adjacent-cluster extents orthogonal to the
// streaming dimension (used to size the prefetch double buffer). For
// non-streaming kernels prefetching is forbidden by the explicit
// constraints, so the return value is unused, but it stays well-defined.
func planeExtent(k *Kernel) (int, int) {
	switch k.SDim {
	case 1:
		return k.AdjY, k.AdjZ
	case 2:
		return k.AdjX, k.AdjZ
	default:
		return k.AdjX, k.AdjY
	}
}

// starArrays counts input arrays with more than one distinct tap offset —
// the arrays worth staging in shared memory or streaming registers. One pass
// over the taps keeps, per array, the first offset seen and whether another
// one followed.
func starArrays(st *stencil.Stencil) int {
	type first struct {
		dx, dy, dz int
		seen, star bool
	}
	var buf [16]first
	arrs := buf[:]
	if st.Inputs > len(buf) {
		arrs = make([]first, st.Inputs)
	}
	n := 0
	for _, t := range st.Taps {
		a := &arrs[t.Array]
		switch {
		case !a.seen:
			*a = first{dx: t.DX, dy: t.DY, dz: t.DZ, seen: true}
		case !a.star && (t.DX != a.dx || t.DY != a.dy || t.DZ != a.dz):
			a.star = true
			n++
		}
	}
	return n
}

// estimateAccessPattern computes LoadsPerPoint (global load instructions per
// output point after all reuse) and InstrPerPoint. sp is the space of
// k.Stencil, and starCount is starArrays(k.Stencil).
func (k *Kernel) estimateAccessPattern(sp *space.Space, starCount int) {
	st := k.Stencil

	loads := 0.0
	// Arrays read only at the centre cost exactly one load per point and
	// never benefit from staging.
	centerArrays := st.Inputs - starCount
	loads += float64(centerArrays)

	if starCount > 0 {
		switch {
		case k.UsesShared:
			// Block-tile staging: every tile cell is loaded once, halo
			// re-reads amortize over the tile volume. A streamed kernel
			// amortizes the walked dimension over the whole tile length.
			// Cyclic copies are staged one cluster at a time through the
			// same buffer, so each pays the halo of a single cluster tile.
			h := 2 * st.Order
			tx := float64(k.Setting[space.TBX] * k.AdjX)
			ty := float64(k.Setting[space.TBY] * k.AdjY)
			tz := float64(k.Setting[space.TBZ] * k.AdjZ)
			if k.Streaming {
				switch k.SDim {
				case 1:
					tx = float64(k.TileLen)
				case 2:
					ty = float64(k.TileLen)
				case 3:
					tz = float64(k.TileLen)
				}
			}
			halo := (tx + float64(h)) * (ty + float64(h)) * (tz + float64(h)) / (tx * ty * tz)
			loads += float64(starCount) * halo
		case k.Streaming:
			// Register streaming: the walked arm of each star stays in
			// registers across iterations, so the union is computed over
			// a long virtual window along the streaming dimension.
			const window = 8
			ax, ay, az := k.AdjX, k.AdjY, k.AdjZ
			switch k.SDim {
			case 1:
				ax *= window
			case 2:
				ay *= window
			case 3:
				az *= window
			}
			u := sp.Footprint(ax, ay, az)
			vol := float64(ax * ay * az)
			loads += (float64(u) - float64(centerArrays)*vol) / vol
		default:
			// Register-only reuse within the adjacent cluster.
			u := sp.Footprint(k.AdjX, k.AdjY, k.AdjZ)
			adj := float64(k.AdjX * k.AdjY * k.AdjZ)
			loads += (float64(u) - float64(centerArrays)*adj) / adj
		}
	}
	k.LoadsPerPoint = loads

	// Dynamic instruction estimate per output point: the stencil's FLOPs,
	// plus index arithmetic amortized over the merged cluster, plus the
	// accumulate-and-reorder overhead of retiming.
	instr := float64(st.FLOPs)
	instr += 14.0 / float64(k.AdjX*k.AdjY*k.AdjZ)
	if k.Retiming {
		if st.Order >= 2 {
			instr *= 1.05
		} else {
			instr *= 1.04
		}
	}
	if k.UsesShared {
		// smem staging adds one extra instruction per staged value.
		instr += k.LoadsPerPoint
	}
	k.InstrPerPoint = instr
}
