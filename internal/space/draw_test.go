package space

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/stencil"
)

// drawer is what a draw needs of a generator; *rand.Rand and *stats.Rand
// both have it.
type drawer interface {
	Intn(n int) int
	Float64() float64
}

// referenceRandomInto is RandomInto as it was when it drew from any
// generator behind an interface, math/rand's included. repair stands in
// for a custom space's CustomRepair; a stencil space repairs without
// drawing.
func referenceRandomInto(sp *Space, s Setting, rng drawer, repair func(Setting, drawer)) {
	for {
		for i := range s {
			vals := sp.Params[i].Values
			if sp.Params[i].Biased {
				j := 0
				for j < len(vals)-1 && rng.Float64() < 0.5 {
					j++
				}
				s[i] = vals[j]
			} else {
				s[i] = vals[rng.Intn(len(vals))]
			}
		}
		if sp.CustomValidate != nil {
			repair(s, rng)
		} else {
			sp.Repair(s, nil)
		}
		if sp.Validate(s) == nil {
			return
		}
	}
}

// drawingRepair is a custom repair that draws: it halves a random one of
// the first two parameters until their product fits.
func drawingRepair(s Setting, rng drawer) {
	for s[0]*s[1] > 64 {
		s[rng.Intn(2)] >>= 1
	}
}

// TestRandomIntoMatchesMathRandLoop pins RandomInto's draws from a
// stats.Rand to referenceRandomInto's from rand.New(rand.NewSource(seed)),
// setting for setting, in the space of every built-in stencil and in a
// custom space whose repair and validation both consume draws, at three
// seeds.
func TestRandomIntoMatchesMathRandLoop(t *testing.T) {
	var spaces []*Space
	for _, st := range stencil.Suite() {
		sp, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, sp)
	}
	custom, err := NewCustom([]Param{
		{Name: "a", Kind: KindPow2, Values: []int{1, 2, 4, 8, 16, 32}},
		{Name: "b", Kind: KindPow2, Values: []int{1, 2, 4, 8, 16, 32, 64}, Biased: true},
		{Name: "c", Kind: KindEnum, Values: []int{1, 2, 3, 5, 7}},
		{Name: "d", Kind: KindBool, Values: []int{Off, On}},
	}, func(s Setting) error {
		if s[2] == 7 && s[3] == On { // left for rejection: repair never fixes it
			return errors.New("c=7 with d")
		}
		return nil
	}, func(s Setting, rng *stats.Rand) { drawingRepair(s, rng) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	spaces = append(spaces, custom)

	for _, sp := range spaces {
		name := "custom"
		if sp.Stencil != nil {
			name = sp.Stencil.Name
		}
		for _, seed := range []int64{1, 2, -7} {
			got, want := stats.NewRand(seed), rand.New(rand.NewSource(seed))
			s, ref := make(Setting, sp.N()), make(Setting, sp.N())
			for n := 0; n < 2000; n++ {
				sp.RandomInto(s, got)
				referenceRandomInto(sp, ref, want, drawingRepair)
				if !s.Equal(ref) {
					t.Fatalf("%s seed %d draw %d: RandomInto gave %v, the math/rand loop %v", name, seed, n, s, ref)
				}
			}
		}
	}
}
