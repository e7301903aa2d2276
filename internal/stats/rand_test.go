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

// TestPermIntoMatchesPerm fills one reused buffer, left holding the last
// permutation, and requires each fill to be the permutation Perm returns
// from the same stream.
func TestPermIntoMatchesPerm(t *testing.T) {
	got, want := NewRand(7), NewRand(7)
	buf := make([]int, 19)
	for range 1000 {
		got.PermInto(buf)
		if w := want.Perm(len(buf)); !slices.Equal(buf, w) {
			t.Fatalf("PermInto = %v, Perm %v", buf, w)
		}
	}
}

// rigged returns a Rand whose next int63 draws return xs, in order: the
// k-th draw adds feed word rngLen-rngTap-1-k, set to xs[k], and tap word
// rngLen-1-k, left zero.
func rigged(xs ...int64) *Rand {
	r := &Rand{feed: rngLen - rngTap}
	for k, x := range xs {
		r.vec[r.feed-1-k] = x
	}
	return r
}

// TestBelowHalfMatchesFloat64 pins BelowHalf to Float64() < 0.5: over 10⁶
// draws at each of three seeds, the answers and the register taps must
// agree call for call, and the generators' states at the end. At the
// rounding boundaries, a rigged generator feeds both the same draws. Just
// below 2⁶²−256 the quotient is below one half, and at it the quotient
// rounds up to one half. From 2⁶³−512 on it rounds to 1, so both draw
// again.
func TestBelowHalfMatchesFloat64(t *testing.T) {
	for _, seed := range []int64{1, 5, -3} {
		got, want := NewRand(seed), NewRand(seed)
		for call := range 1000000 {
			if g, w := got.BelowHalf(), want.Float64() < 0.5; g != w || got.tap != want.tap {
				t.Fatalf("seed %d call %d: BelowHalf() = %v at tap %d, Float64() < 0.5 = %v at tap %d", seed, call, g, got.tap, w, want.tap)
			}
		}
		if *got != *want {
			t.Fatalf("seed %d: the generators' states differ after the draws", seed)
		}
	}
	const next = 1 << 61 // the draw after a redraw
	for _, tc := range []struct {
		x     int64
		below bool // x/2⁶³ rounds below one half
		one   bool // x/2⁶³ rounds to 1, which is drawn again
	}{
		{0, true, false},
		{1<<62 - 257, true, false},
		{1<<62 - 256, false, false},
		{1<<62 - 255, false, false},
		{1 << 62, false, false},
		{1<<63 - 513, false, false},
		{1<<63 - 512, false, true},
		{1<<63 - 1, false, true},
	} {
		if q := float64(tc.x) / (1 << 63); (q < 0.5) != tc.below || (q == 1) != tc.one {
			t.Fatalf("x = %d: quotient %v, want below one half %v, one %v", tc.x, q, tc.below, tc.one)
		}
		got, want := rigged(tc.x, next), rigged(tc.x, next)
		if g, w := got.BelowHalf(), want.Float64() < 0.5; g != w || *got != *want {
			t.Fatalf("x = %d: BelowHalf() = %v, Float64() < 0.5 = %v, states equal %v", tc.x, g, w, *got == *want)
		}
		if drew := got.tap != rngLen-1; drew != tc.one {
			t.Fatalf("x = %d: drew again %v, want %v", tc.x, drew, tc.one)
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
