package stencil

import "fmt"

// Grid is a 3-D double-precision field with a halo region of fixed width on
// every face. Interior coordinates run over [0,NX)×[0,NY)×[0,NZ); halo cells
// are addressed with negative or >=N coordinates down to -Halo / up to
// N+Halo-1. Storage is a single contiguous allocation, X fastest, matching
// the row-major CUDA layout the paper's kernels use.
type Grid struct {
	NX, NY, NZ int
	Halo       int
	data       []float64
	sx, sy     int // strides: sx = 1 implied, sy = padded NX, sz = sy*padded NY
}

// NewGrid allocates a zeroed grid of the given interior extent and halo.
func NewGrid(nx, ny, nz, halo int) *Grid {
	if nx <= 0 || ny <= 0 || nz <= 0 || halo < 0 {
		panic(fmt.Sprintf("stencil: invalid grid %dx%dx%d halo %d", nx, ny, nz, halo))
	}
	px, py, pz := nx+2*halo, ny+2*halo, nz+2*halo
	return &Grid{
		NX: nx, NY: ny, NZ: nz, Halo: halo,
		data: make([]float64, px*py*pz),
		sx:   px, sy: px * py,
	}
}

// idx maps interior coordinates (halo-extended) to the flat index.
func (g *Grid) idx(x, y, z int) int {
	return (z+g.Halo)*g.sy + (y+g.Halo)*g.sx + (x + g.Halo)
}

// At returns the value at (x, y, z); halo coordinates are legal within the
// halo width.
func (g *Grid) At(x, y, z int) float64 { return g.data[g.idx(x, y, z)] }

// Set stores v at (x, y, z).
func (g *Grid) Set(x, y, z int, v float64) { g.data[g.idx(x, y, z)] = v }

// FillFunc initializes every cell, including the halo, from f over
// halo-extended coordinates.
func (g *Grid) FillFunc(f func(x, y, z int) float64) {
	for z := -g.Halo; z < g.NZ+g.Halo; z++ {
		for y := -g.Halo; y < g.NY+g.Halo; y++ {
			for x := -g.Halo; x < g.NX+g.Halo; x++ {
				g.data[g.idx(x, y, z)] = f(x, y, z)
			}
		}
	}
}

// MaxAbsDiff returns the largest absolute difference over the interiors of
// g and h, which must have identical extents.
func (g *Grid) MaxAbsDiff(h *Grid) (float64, error) {
	if g.NX != h.NX || g.NY != h.NY || g.NZ != h.NZ {
		return 0, fmt.Errorf("stencil: grid shape mismatch %dx%dx%d vs %dx%dx%d",
			g.NX, g.NY, g.NZ, h.NX, h.NY, h.NZ)
	}
	var max float64
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				d := g.At(x, y, z) - h.At(x, y, z)
				if d < 0 {
					d = -d
				}
				if d > max {
					max = d
				}
			}
		}
	}
	return max, nil
}
