package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// TestGeometryInvariants checks, over random valid settings of every suite
// stencil, the structural invariants any launch geometry must satisfy:
// the padded iteration space covers the grid, the guard fraction is a true
// fraction, and resource numbers respect the architectural envelope.
func TestGeometryInvariants(t *testing.T) {
	arch := gpu.A100()
	for _, st := range stencil.Suite() {
		sp, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		f := func(seed int64) bool {
			r := stats.NewRand(seed)
			s := sp.Random(r)
			k, err := Build(sp, s, arch)
			if err != nil {
				return true // resource-invalid settings are fine
			}
			checked++
			// Coverage: padded points >= interior points.
			padded := float64(k.GridBlocks) * float64(k.ThreadsPerBlock) *
				float64(k.PointsPerThread) * float64(k.IterationsPerBlock)
			if padded < float64(st.Points()) {
				t.Logf("%s %s: padded %v < points %v", st.Name, s, padded, st.Points())
				return false
			}
			// GuardFrac is the active fraction of that padding.
			if k.GuardFrac <= 0 || k.GuardFrac > 1+1e-12 {
				return false
			}
			if g := float64(st.Points()) / padded; g > k.GuardFrac+1e-9 {
				// GuardFrac cannot claim more activity than coverage allows.
				return false
			}
			// Resources inside the envelope (Build enforced them).
			if k.RegsPerThread > arch.SpillRegsPerThread || k.SharedPerBlock > arch.SharedMemPerBlock {
				return false
			}
			// Occupancy sane.
			if k.Occ.BlocksPerSM < 1 || k.Occ.Achieved <= 0 || k.Occ.Achieved > 1 {
				return false
			}
			// Loads per point: always positive. Register reuse can only
			// reduce the naive tap count, so without shared staging the
			// naive count is an upper bound; shared staging of degenerate
			// (e.g. one-plane) tiles can legitimately amplify loads through
			// halo re-reads.
			if k.LoadsPerPoint <= 0 {
				return false
			}
			if !k.UsesShared && k.LoadsPerPoint > float64(st.UniqueOffsets())+1e-9 {
				return false
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		if checked == 0 {
			t.Fatalf("%s: no valid settings checked", st.Name)
		}
	}
}

// TestStreamingIterationAccounting: the serial steps of a streamed kernel
// must cover each tile exactly.
func TestStreamingIterationAccounting(t *testing.T) {
	st := stencil.J3D7PT()
	sp, err := space.New(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, sb := range []int{1, 2, 8, 64} {
		s := sp.Default()
		s[space.UseStreaming] = space.On
		s[space.SD] = 3
		s[space.SB] = sb
		s[space.TBZ] = 1
		k, err := Build(sp, s, gpu.A100())
		if err != nil {
			t.Fatalf("SB=%d: %v", sb, err)
		}
		covered := k.IterationsPerBlock * s[space.TBZ] * k.AdjZ * k.SBTiles
		if covered < st.NZ {
			t.Fatalf("SB=%d: streaming covers %d of %d planes", sb, covered, st.NZ)
		}
		if k.TileLen*k.SBTiles < st.NZ {
			t.Fatalf("SB=%d: tiles cover %d of %d", sb, k.TileLen*k.SBTiles, st.NZ)
		}
	}
}
