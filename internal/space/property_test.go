package space

import (
	"fmt"
	"testing"

	"repro/internal/stats"
	"repro/internal/stencil"
)

// randomStencil builds a structurally-valid stencil with randomized grid
// extents and order, so the properties below range over many distinct
// constrained spaces, not just the Table III suite.
func randomStencil(rng *stats.Rand, i int) *stencil.Stencil {
	dims := []int{16, 32, 64, 128, 256, 512}
	order := 1 + rng.Intn(3)
	return &stencil.Stencil{
		Name:    fmt.Sprintf("prop-%d", i),
		NX:      dims[rng.Intn(len(dims))],
		NY:      dims[rng.Intn(len(dims))],
		NZ:      dims[rng.Intn(len(dims))],
		Order:   order,
		FLOPs:   4 + rng.Intn(60),
		Inputs:  1,
		Outputs: 1,
		Taps:    stencil.StarTaps(order, 0),
		Coeffs:  1 + order,
	}
}

// propertySpaces returns the Table III spaces plus randomized ones.
func propertySpaces(t *testing.T) []*Space {
	t.Helper()
	var out []*Space
	for _, st := range stencil.Suite() {
		sp, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sp)
	}
	rng := stats.NewRand(1234)
	for i := 0; i < 12; i++ {
		sp, err := New(randomStencil(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sp)
	}
	return out
}

func TestPropertyKeyParseKeyRoundTrip(t *testing.T) {
	rng := stats.NewRand(7)
	for _, sp := range propertySpaces(t) {
		for i := 0; i < 50; i++ {
			s := sp.Random(rng)
			key := s.Key()
			got, err := ParseKey(key)
			if err != nil {
				t.Fatalf("%s: ParseKey(%q) failed: %v", sp.Stencil.Name, key, err)
			}
			if !got.Equal(s) {
				t.Fatalf("%s: round trip %q -> %v != %v", sp.Stencil.Name, key, got, s)
			}
			if got.Key() != key {
				t.Fatalf("%s: re-encode %q -> %q", sp.Stencil.Name, key, got.Key())
			}
		}
	}
}

func TestParseKeyRejectsNonCanonical(t *testing.T) {
	bad := []string{
		"",                           // empty
		",",                          // empty parts
		"1,,2",                       // empty middle part
		"01,2",                       // leading zero
		"+1,2",                       // explicit sign
		"-0,2",                       // negative zero
		" 1,2",                       // whitespace
		"1,2 ",                       // trailing whitespace
		"1;2",                        // wrong separator
		"1,2,three",                  // non-numeric
		"1,2,",                       // trailing separator
		"999999999999999999999999,1", // overflow
	}
	for _, key := range bad {
		if s, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q) = %v, want error", key, s)
		}
	}
	// Canonical keys — including negative values, which Key can render for
	// out-of-space settings — round-trip exactly.
	for _, key := range []string{"0", "7", "-3,0,12", "1,2,3"} {
		s, err := ParseKey(key)
		if err != nil || s.Key() != key {
			t.Errorf("ParseKey(%q) = %v/%v, want exact round trip", key, s, err)
		}
	}
}

func TestPropertyRandomAlwaysValid(t *testing.T) {
	rng := stats.NewRand(99)
	for _, sp := range propertySpaces(t) {
		for i := 0; i < 50; i++ {
			s := sp.Random(rng)
			if err := sp.Validate(s); err != nil {
				t.Fatalf("%s: Random produced invalid setting %v: %v", sp.Stencil.Name, s, err)
			}
		}
	}
}

func TestPropertyRepairIdempotentAndCanonical(t *testing.T) {
	rng := stats.NewRand(23)
	for _, sp := range propertySpaces(t) {
		for i := 0; i < 50; i++ {
			// Draw a raw (unrepaired, possibly invalid) assignment.
			s := make(Setting, len(sp.Params))
			for j := range s {
				vals := sp.Params[j].Values
				s[j] = vals[rng.Intn(len(vals))]
			}
			sp.Repair(s, rng)
			again := s.Clone()
			sp.Repair(again, rng)
			if !again.Equal(s) {
				t.Fatalf("%s: Repair not idempotent: %v -> %v", sp.Stencil.Name, s, again)
			}
			// Repair must yield the canonical streaming form.
			if s[UseStreaming] != On && (s[SD] != 1 || s[SB] != 1 || s[UsePrefetching] == On) {
				t.Fatalf("%s: non-streaming repair not canonical: %v", sp.Stencil.Name, s)
			}
			// A repaired setting either validates or fails only on residual
			// numeric conflicts — never on the structural rules Repair owns.
			if err := sp.Validate(s); err == nil {
				v := s.Clone()
				sp.Repair(v, rng)
				if !v.Equal(s) {
					t.Fatalf("%s: Repair changed an already-valid setting", sp.Stencil.Name)
				}
			}
		}
	}
}
