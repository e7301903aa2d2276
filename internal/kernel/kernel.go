// Package kernel is the analytical "compiler" of the reproduction: given a
// stencil, a parameter setting and a target GPU architecture it derives the
// launch geometry, the per-thread register and per-block shared-memory
// footprint, the effective global-memory access pattern after all reuse
// optimizations, and the implicit resource constraints (paper Sec. IV-B:
// "csTuner checks the above constraints before generating the search codes
// so that only non-spilled parameter settings are explored").
//
// It also emits CUDA-C source text for each setting (the code-generation
// stage whose cost Fig. 12 accounts for) and provides a CPU executor that
// walks the *transformed* iteration order so tests can prove every
// blocking/merging/streaming combination still computes the naive sweep.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stencil"
)

// ErrResource wraps all implicit-constraint violations: settings that pass
// the explicit Table I rules but cannot be compiled without spilling or
// exceeding shared memory.
var ErrResource = errors.New("kernel: resource constraint violated")

// Kernel is the build product for one (stencil, setting, arch) triple. All
// fields are inputs to the execution-time model in package sim.
type Kernel struct {
	Stencil *stencil.Stencil
	Setting space.Setting
	Arch    *gpu.Arch

	// Launch geometry.
	ThreadsPerBlock    int
	GridBlocks         int
	IterationsPerBlock int // serial streaming steps per block (1 when not streaming)

	// Per-thread work decomposition: Adj* is the contiguous cluster a
	// thread owns (unroll × block merge), Cyc* the cyclic replication.
	AdjX, AdjY, AdjZ int
	CycX, CycY, CycZ int
	PointsPerThread  int // AdjX*AdjY*AdjZ*CycX*CycY*CycZ

	// Streaming configuration.
	Streaming bool
	SDim      int // 1=X 2=Y 3=Z, meaningful when Streaming
	SBTiles   int
	TileLen   int // points along SDim per concurrent tile

	// Resources.
	RegsPerThread  int
	SharedPerBlock int
	Occ            gpu.Occupancy

	// Memory behaviour.
	LoadsPerPoint float64 // global load instructions per output point after reuse
	GuardFrac     float64 // active fraction of the padded iteration space

	// Optimization flags resolved from the setting.
	UsesShared   bool
	UsesConstant bool
	Retiming     bool
	Prefetch     bool

	// InstrPerPoint estimates dynamic instructions per output point
	// including amortized index arithmetic and retiming overhead.
	InstrPerPoint float64
}

// Build compiles the setting. sp must be the space of k.Stencil; the setting
// is validated against both the explicit (space) and implicit (resource)
// constraints. On success the returned kernel is ready for simulation.
//
// The kernel is assembled on the stack around the caller's setting and
// copied to the heap, with a copy of the setting, only once every
// constraint holds: a rejection costs no more than its error value.
func Build(sp *space.Space, s space.Setting, arch *gpu.Arch) (*Kernel, error) {
	if err := sp.Validate(s); err != nil {
		return nil, err
	}
	st := sp.Stencil
	k := Kernel{Stencil: st, Setting: s, Arch: arch}

	k.AdjX = s[space.UFX] * s[space.BMX]
	k.AdjY = s[space.UFY] * s[space.BMY]
	k.AdjZ = s[space.UFZ] * s[space.BMZ]
	k.CycX, k.CycY, k.CycZ = s[space.CMX], s[space.CMY], s[space.CMZ]
	k.PointsPerThread = k.AdjX * k.AdjY * k.AdjZ * k.CycX * k.CycY * k.CycZ

	k.UsesShared = s[space.UseShared] == space.On
	k.UsesConstant = s[space.UseConstant] == space.On
	k.Retiming = s[space.UseRetiming] == space.On
	k.Prefetch = s[space.UsePrefetching] == space.On
	k.Streaming = s[space.UseStreaming] == space.On
	k.ThreadsPerBlock = s[space.TBX] * s[space.TBY] * s[space.TBZ]

	// Cheap early reject: each in-flight output point costs at least one
	// FP64 accumulator (2 registers); past this bound no scheduler avoids
	// a spill, and the exact union computation below would only be slower.
	adjPoints := k.AdjX * k.AdjY * k.AdjZ
	if 2*adjPoints*st.Outputs > 4*arch.MaxRegsPerThread {
		return nil, &resourceError{reason: registerFile, a: adjPoints, b: st.Outputs}
	}

	if err := k.layoutGeometry(s); err != nil {
		return nil, err
	}
	star := starArrays(st)
	if err := k.estimateResources(sp, star); err != nil {
		return nil, err
	}

	occ, err := arch.ComputeOccupancy(k.ThreadsPerBlock, k.RegsPerThread, k.SharedPerBlock)
	if err != nil {
		return nil, &resourceError{reason: occupancy, occ: err}
	}
	k.Occ = occ
	k.estimateAccessPattern(sp, star)

	built := k
	built.Setting = s.Clone()
	return &built, nil
}

// resourceError is an implicit-constraint violation; errors.Is reports it
// as ErrResource. It keeps its operands and renders the text only when
// Error is called, so the tuners, which only test for nil, never format one.
type resourceError struct {
	reason resourceReason
	a, b   int
	occ    error // the occupancy calculation's rejection
}

type resourceReason uint8

const (
	registerFile resourceReason = iota // a merged points × b outputs
	emptyGrid
	regSpill     // a registers/thread over the spill limit b
	sharedMemory // a bytes over the per-block maximum b
	occupancy
)

func (e *resourceError) Error() string {
	var detail string
	switch e.reason {
	case registerFile:
		detail = fmt.Sprintf("%d merged points x %d outputs cannot fit the register file", e.a, e.b)
	case emptyGrid:
		detail = "empty grid"
	case regSpill:
		detail = fmt.Sprintf("%d registers/thread would spill (limit %d)", e.a, e.b)
	case sharedMemory:
		detail = fmt.Sprintf("%dB shared memory exceeds per-block max %dB", e.a, e.b)
	case occupancy:
		detail = e.occ.Error()
	}
	return ErrResource.Error() + ": " + detail
}

func (e *resourceError) Unwrap() error { return ErrResource }

// layoutGeometry derives the grid of thread blocks, the per-block streaming
// iteration count, and the active fraction of the padded iteration space.
func (k *Kernel) layoutGeometry(s space.Setting) error {
	st := k.Stencil
	n := [3]int{st.NX, st.NY, st.NZ}
	tb := [3]int{s[space.TBX], s[space.TBY], s[space.TBZ]}
	adj := [3]int{k.AdjX, k.AdjY, k.AdjZ}
	cyc := [3]int{k.CycX, k.CycY, k.CycZ}

	blocks := 1
	active := 1.0
	k.IterationsPerBlock = 1

	for d := 0; d < 3; d++ {
		if k.Streaming && s[space.SD] == d+1 {
			// Streaming dimension: SB concurrent tiles, each walked
			// serially in steps of TB_d × Adj_d points.
			k.SDim = d + 1
			k.SBTiles = s[space.SB]
			k.TileLen = ceilDiv(n[d], k.SBTiles)
			step := tb[d] * adj[d]
			iters := ceilDiv(k.TileLen, step)
			k.IterationsPerBlock = iters
			blocks *= k.SBTiles
			padded := k.SBTiles * iters * step
			active *= float64(n[d]) / float64(padded)
			continue
		}
		// Regular dimension: cyclic copies stride over the padded thread
		// count, adjacent clusters sit under each thread.
		perThread := adj[d] * cyc[d]
		threads := ceilDiv(n[d], perThread)
		b := ceilDiv(threads, tb[d])
		blocks *= b
		padded := b * tb[d] * perThread
		active *= float64(n[d]) / float64(padded)
	}

	if blocks <= 0 {
		return &resourceError{reason: emptyGrid}
	}
	k.GridBlocks = blocks
	k.GuardFrac = active
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
