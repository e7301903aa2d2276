package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestRandMatchesMathRand drives Rand and rand.New(rand.NewSource(seed))
// through the same 10⁵ interleaved calls of Intn, Float64 and Perm and
// requires every result to be equal, for edge seeds (0 and the seeds
// math/rand folds onto it or onto 2³¹−1, negative ones, one past int32)
// and 20 seeded others. Intn's arguments cover 1, powers of two,
// non-powers of two whose rejection bound bites, 2³¹−1 and values above
// it, where math/rand switches from Int31n to Int63n.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 31, -1 << 40}
	pick := rand.New(rand.NewSource(20261018))
	for range 20 {
		seeds = append(seeds, pick.Int63()-1<<62)
	}
	ns := []int{1, 2, 3, 7, 10, 11, 16, 100, 1000, 1 << 20, 3 << 29, 1<<31 - 1,
		1 << 31, 1<<31 + 1, 1<<40 + 3, 3 << 61, math.MaxInt64}
	for _, seed := range seeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for call := range 100000 {
			switch op := ops.Intn(8); {
			case op < 5:
				n := ns[ops.Intn(len(ns))]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d call %d: Intn(%d) = %d, math/rand %d", seed, call, n, g, w)
				}
			case op < 7:
				if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d call %d: Float64() = %v, math/rand %v", seed, call, g, w)
				}
			default:
				n := ops.Intn(24)
				if g, w := got.Perm(n), want.Perm(n); !slices.Equal(g, w) {
					t.Fatalf("seed %d call %d: Perm(%d) = %v, math/rand %v", seed, call, n, g, w)
				}
			}
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewRand(1).Intn(n)
		}()
	}
}
