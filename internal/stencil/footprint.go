package stencil

import "math/bits"

// planeWords is the stack capacity, in 64-bit words, of Footprint's
// bitset. Over random settings of the Table III stencils, at most
// 1.3% of a stencil's arrays need more, and those go to the heap.
const planeWords = 512

// Footprint returns the size of the union of tap footprints over a cluster
// of ax × ay × az adjacent output points, across all input arrays. This is
// exactly the set of distinct values a fully-unrolled thread must load, and
// therefore the driver of both register pressure (no shared memory) and
// intra-thread reuse in the kernel resource model.
//
// Arrays are counted one at a time in a bitset over the array's box of
// tap offsets padded by the cluster: one row per (y, z) of the box, one bit
// per x. Each tap ORs the run [dx, dx+ax) into the ay × az rows it reaches,
// and the popcount of the rows is the array's footprint.
func (s *Stencil) Footprint(ax, ay, az int) int {
	var boxBuf [16]tapBox
	boxes := boxBuf[:]
	if s.Inputs > len(boxBuf) {
		boxes = make([]tapBox, s.Inputs)
	}
	for i, t := range s.Taps {
		boxes[t.Array].add(i, t)
	}

	var planeBuf [planeWords]uint64
	buf := planeBuf[:]
	total := 0
	for a := range boxes {
		b := &boxes[a]
		if !b.used {
			continue
		}
		words := (b.x1 - b.x0 + ax + 63) >> 6
		h := b.y1 - b.y0 + ay
		n := h * (b.z1 - b.z0 + az) * words
		if n > len(buf) {
			buf = make([]uint64, n)
		}
		plane := buf[:n]

		// Consecutive taps on the same row whose runs touch are
		// coalesced into one run before it is spread over the rows.
		y, z, lo, hi := 0, 0, 0, 0
		for _, t := range s.Taps[b.first : b.last+1] {
			if t.Array != a {
				continue
			}
			ty, tz, tlo := t.DY-b.y0, t.DZ-b.z0, t.DX-b.x0
			if hi > lo && ty == y && tz == z && tlo <= hi && tlo+ax >= lo {
				lo, hi = min(lo, tlo), max(hi, tlo+ax)
				continue
			}
			orRun(plane, words, h, y, z, ay, az, lo, hi)
			y, z, lo, hi = ty, tz, tlo, tlo+ax
		}
		orRun(plane, words, h, y, z, ay, az, lo, hi)

		for i, v := range plane {
			total += bits.OnesCount64(v)
			plane[i] = 0
		}
	}
	return total
}

// tapBox is the bounding box of one input array's tap offsets and the
// span [first, last] of s.Taps that holds its taps.
type tapBox struct {
	x0, x1, y0, y1, z0, z1 int
	first, last            int
	used                   bool
}

func (b *tapBox) add(i int, t Tap) {
	if !b.used {
		*b = tapBox{t.DX, t.DX, t.DY, t.DY, t.DZ, t.DZ, i, i, true}
		return
	}
	b.x0, b.x1 = min(b.x0, t.DX), max(b.x1, t.DX)
	b.y0, b.y1 = min(b.y0, t.DY), max(b.y1, t.DY)
	b.z0, b.z1 = min(b.z0, t.DZ), max(b.z1, t.DZ)
	b.last = i
}

// orRun sets bits [lo, hi) in each of the ay × az rows starting at row
// (y, z) of a plane with h rows per z and words words per row.
func orRun(plane []uint64, words, h, y, z, ay, az, lo, hi int) {
	for lo < hi {
		w, bit := lo>>6, lo&63
		n := min(hi-lo, 64-bit)
		mask := ^uint64(0) >> (64 - n) << bit
		for zz := z; zz < z+az; zz++ {
			i := (zz*h+y)*words + w
			for range ay {
				plane[i] |= mask
				i += words
			}
		}
		lo += n
	}
}
