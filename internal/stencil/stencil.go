// Package stencil defines complex stencil computations — the workloads
// csTuner tunes — as first-class values: the access pattern (taps), stencil
// order, floating-point cost, grid extent, and I/O array layout.
//
// The package ships the eight 3-D double-precision benchmark stencils of the
// paper's Table III (taken originally from Rawat et al., PPoPP'18) and a
// goroutine-parallel CPU reference executor used to validate transformed
// kernel iteration orders against the naive sweep.
package stencil

import (
	"errors"
	"fmt"
)

// Tap is one access of a stencil: read input array Array at offset
// (DX, DY, DZ) from the centre point, scaled by Coeff.
type Tap struct {
	Array      int     // input array index in [0, Inputs)
	DX, DY, DZ int     // offsets; |offset| <= Order along each axis
	Coeff      float64 // multiplicative coefficient
}

// Stencil describes one stencil computation over a 3-D grid. X is the
// innermost (unit-stride) dimension, matching the CUDA layout the paper
// targets.
type Stencil struct {
	Name string

	// NX, NY, NZ are the interior grid extents M1, M2, M3 (Table III).
	NX, NY, NZ int

	// Order is the stencil order: the largest |offset| along any axis.
	Order int

	// FLOPs is the number of double-precision floating point operations a
	// single output point costs (Table III).
	FLOPs int

	// Inputs and Outputs are the number of distinct input and output
	// arrays; Inputs+Outputs is the "# I/O Arrays" column of Table III.
	Inputs  int
	Outputs int

	// Taps lists every read performed per output point. Reference and
	// transformed executors compute
	//   out[k][p] = sum_{t in Taps} t.Coeff * in[t.Array][p + t.offset]
	// for every output array k (output arrays share the tap pattern; real
	// codes differ per array but the data-movement shape is identical).
	Taps []Tap

	// Coeffs is the number of scalar coefficients, the candidate payload
	// for constant memory.
	Coeffs int
}

// Validate checks internal consistency of the stencil description.
func (s *Stencil) Validate() error {
	if s.Name == "" {
		return errors.New("stencil: empty name")
	}
	if s.NX <= 0 || s.NY <= 0 || s.NZ <= 0 {
		return fmt.Errorf("stencil %s: non-positive grid %dx%dx%d", s.Name, s.NX, s.NY, s.NZ)
	}
	if s.Order < 0 {
		return fmt.Errorf("stencil %s: negative order %d", s.Name, s.Order)
	}
	if s.Inputs < 1 || s.Outputs < 1 {
		return fmt.Errorf("stencil %s: needs at least one input and one output array", s.Name)
	}
	if len(s.Taps) == 0 {
		return fmt.Errorf("stencil %s: no taps", s.Name)
	}
	if s.FLOPs <= 0 {
		return fmt.Errorf("stencil %s: non-positive FLOPs %d", s.Name, s.FLOPs)
	}
	for i, t := range s.Taps {
		if t.Array < 0 || t.Array >= s.Inputs {
			return fmt.Errorf("stencil %s: tap %d references array %d outside [0,%d)", s.Name, i, t.Array, s.Inputs)
		}
		if abs(t.DX) > s.Order || abs(t.DY) > s.Order || abs(t.DZ) > s.Order {
			return fmt.Errorf("stencil %s: tap %d offset (%d,%d,%d) exceeds order %d",
				s.Name, i, t.DX, t.DY, t.DZ, s.Order)
		}
	}
	return nil
}

// Dim returns the grid extent of the given axis (1=X, 2=Y, 3=Z), matching
// the paper's M_n notation where M_SD bounds the concurrent-streaming tiles.
func (s *Stencil) Dim(axis int) int {
	switch axis {
	case 1:
		return s.NX
	case 2:
		return s.NY
	case 3:
		return s.NZ
	}
	panic(fmt.Sprintf("stencil: invalid axis %d", axis))
}

// Points returns the number of interior output points of the grid.
func (s *Stencil) Points() int64 {
	return int64(s.NX) * int64(s.NY) * int64(s.NZ)
}

// TotalFLOPs returns the double-precision work of one full sweep across all
// output arrays.
func (s *Stencil) TotalFLOPs() int64 {
	return s.Points() * int64(s.FLOPs) * int64(s.Outputs)
}

// BytesMoved returns the compulsory (perfect-cache) data movement of one
// sweep in bytes: each input array read once, each output written once.
func (s *Stencil) BytesMoved() int64 {
	const fp64 = 8
	return s.Points() * int64(s.Inputs+s.Outputs) * fp64
}

// UniqueOffsets returns the number of distinct (Array, DX, DY, DZ) reads,
// i.e. the per-point load count before any reuse optimization.
func (s *Stencil) UniqueOffsets() int {
	type key struct{ a, x, y, z int }
	seen := make(map[key]struct{}, len(s.Taps))
	for _, t := range s.Taps {
		seen[key{t.Array, t.DX, t.DY, t.DZ}] = struct{}{}
	}
	return len(seen)
}

// HaloVolume returns the halo read amplification factor for a tile of shape
// tx × ty × tz: (tile+2·order volume)/(tile volume). Shared-memory staging
// pays this factor once per tile.
func (s *Stencil) HaloVolume(tx, ty, tz int) float64 {
	if tx <= 0 || ty <= 0 || tz <= 0 {
		return 1
	}
	h := 2 * s.Order
	inner := float64(tx) * float64(ty) * float64(tz)
	outer := float64(tx+h) * float64(ty+h) * float64(tz+h)
	return outer / inner
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// String implements fmt.Stringer with the Table III row format.
func (s *Stencil) String() string {
	return fmt.Sprintf("%s %dx%dx%d order=%d flops=%d io=%d",
		s.Name, s.NX, s.NY, s.NZ, s.Order, s.FLOPs, s.Inputs+s.Outputs)
}
