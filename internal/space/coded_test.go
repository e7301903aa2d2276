package space

import (
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/stencil"
)

// TestCodedRoundTrip codes random settings and settings holding values
// outside their parameters' Param.Values, each added twice, into a Coded
// sized for two so its table grows: the first Add of a setting adds it and
// the second does not, legal values code as their Param.Index, each
// foreign value takes one code after the space's own, in the order first
// seen, Decode gives every setting back, Has finds exactly the settings
// added, and the space's own lists are left as they were.
func TestCodedRoundTrip(t *testing.T) {
	sp, err := New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	own := slices.Clone(sp.Params[TBX].Values)
	rng := stats.NewRand(3)
	var settings []Setting
	for i := range 200 {
		s := sp.Random(rng)
		if i%50 == 7 {
			s[TBX] = 3 + 2*(i%3) // 5, 3, 7, then 5 again
		}
		settings = append(settings, s)
	}
	c := sp.NewCoded(2)
	for i, s := range settings {
		if c.Has(s) {
			t.Fatalf("setting %d is held before it is added", i)
		}
		for rep, want := range []bool{true, false} {
			if added, err := c.Add(s); err != nil || added != want {
				t.Fatalf("setting %d, Add %d: added %v, %v; want %v", i, rep+1, added, err, want)
			}
		}
		if c.Len() != i+1 {
			t.Fatalf("Len = %d after %d settings", c.Len(), i+1)
		}
		codes := c.Row(i)
		for p, v := range s {
			if x := sp.Params[p].Index(v); x >= 0 && int(codes[p]) != x {
				t.Fatalf("%v: parameter %d codes as %d, Param.Index %d", s, p, codes[p], x)
			}
			if got := c.Value(p, codes[p]); got != v {
				t.Fatalf("%v: parameter %d code %d stands for %d", s, p, codes[p], got)
			}
		}
	}
	got := make(Setting, sp.N())
	for i, s := range settings {
		if c.Decode(i, got); !got.Equal(s) {
			t.Fatalf("setting %d decodes as %v, want %v", i, got, s)
		}
		if !c.Has(s) {
			t.Fatalf("setting %d is not held", i)
		}
	}
	other := settings[0].Clone()
	other[TBX] = 9
	if c.Has(other) || c.NumCodes(TBX) != len(own)+3 {
		t.Fatalf("Has found %v, or looking it up gave TBX %d codes", other, c.NumCodes(TBX))
	}
	if want := append(slices.Clone(own), 5, 3, 7); !slices.Equal(c.values[TBX], want) {
		t.Fatalf("TBX codes %v, want %v", c.values[TBX], want)
	}
	if !slices.Equal(sp.Params[TBX].Values, own) {
		t.Fatalf("the space's TBX values changed to %v", sp.Params[TBX].Values)
	}
}

// TestCodedRefusesTooManyValues adds a setting with two values outside
// their parameters' lists, the second of which would be one value more than
// a code can number: Add fails and leaves the settings and every
// parameter's values as they were.
func TestCodedRefusesTooManyValues(t *testing.T) {
	vals := make([]int, 1<<16)
	for i := range vals {
		vals[i] = i + 1
	}
	sp, err := NewCustom([]Param{{Name: "narrow", Values: []int{1, 2}}, {Name: "wide", Values: vals}}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := sp.NewCoded(2)
	if _, err := c.Add(Setting{1, 1 << 16}); err != nil {
		t.Fatalf("the last legal value: %v", err)
	}
	if _, err := c.Add(Setting{3, 0}); err == nil {
		t.Fatal("a foreign value past 65536 codes was accepted")
	}
	if c.Len() != 1 || c.NumCodes(0) != 2 || c.NumCodes(1) != 1<<16 {
		t.Fatalf("after the refused Add: Len %d, %d and %d codes; want 1, 2 and %d", c.Len(), c.NumCodes(0), c.NumCodes(1), 1<<16)
	}
}
