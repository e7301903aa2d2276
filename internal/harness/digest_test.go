package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/stencil"
)

// fixtureDigest is the FNV-64a digest of NewFixture's dataset for every
// Table III stencil on the A100 and the V100 at 64 and 128 samples: the
// labels, then every sample's setting key, TimeMS and metric values (by
// their bit patterns, metrics in name order). Collection order, the rng
// stream and the simulator all move it; rewrites of the collection loop
// must not.
const fixtureDigest = "0a27a176478fd41e"

// motivationDigest is the FNV-64a digest of CollectMotivation's sample
// (BestMS, then every setting key and time, by their bit patterns) for the
// cases below.
const motivationDigest = "33663e389c88c296"

func TestCollectionDigests(t *testing.T) {
	h := fnv.New64a()
	for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
		for _, st := range stencil.Suite() {
			for _, n := range []int{64, 128} {
				fx, err := NewFixture(st, arch, n, 1)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %s %d\n", fx.DS.Stencil, fx.DS.Arch, len(fx.DS.Samples))
				for _, smp := range fx.DS.Samples {
					fmt.Fprintf(h, "%s %x", smp.Setting.Key(), math.Float64bits(smp.TimeMS))
					names := make([]string, 0, len(smp.Metrics))
					for name := range smp.Metrics {
						names = append(names, name)
					}
					sort.Strings(names)
					for _, name := range names {
						fmt.Fprintf(h, " %s=%x", name, math.Float64bits(smp.Metrics[name]))
					}
					fmt.Fprintln(h)
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != fixtureDigest {
		t.Errorf("fixture dataset digest = %s, want %s", got, fixtureDigest)
	}

	h.Reset()
	for _, tc := range []struct {
		st   *stencil.Stencil
		arch *gpu.Arch
		n    int
		seed int64
	}{
		{stencil.J3D7PT(), gpu.A100(), 300, 1},
		{stencil.Helmholtz(), gpu.V100(), 300, 7},
		{stencil.Hypterm(), gpu.A100(), 2000, 42},
		{stencil.RHS4Center(), gpu.V100(), 2000, 42},
	} {
		fx, err := NewFixture(tc.st, tc.arch, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := CollectMotivation(fx, tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s %d %d %x\n", ms.Stencil, tc.arch.Name, tc.n, tc.seed, math.Float64bits(ms.BestMS))
		for i, s := range ms.Settings {
			fmt.Fprintf(h, "%s %x\n", s.Key(), math.Float64bits(ms.Times[i]))
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != motivationDigest {
		t.Errorf("motivation sample digest = %s, want %s", got, motivationDigest)
	}
}
