package space

import (
	"errors"
	"testing"

	"repro/internal/stats"
)

func customSpace(t *testing.T) *Space {
	t.Helper()
	params := []Param{
		{Name: "a", Kind: KindPow2, Values: []int{1, 2, 4, 8}},
		{Name: "b", Kind: KindPow2, Values: []int{1, 2, 4}, Biased: true},
		{Name: "flag", Kind: KindBool, Values: []int{Off, On}},
	}
	validate := func(s Setting) error {
		if s[0]*s[1] > 16 {
			return errors.New("a*b too large")
		}
		return nil
	}
	repair := func(s Setting, rng *stats.Rand) {
		for s[0]*s[1] > 16 {
			s[0] >>= 1
		}
	}
	sp, err := NewCustom(params, validate, repair, func() Setting { return Setting{2, 1, Off} })
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestNewCustomValidation(t *testing.T) {
	if _, err := NewCustom(nil, nil, nil, nil); err == nil {
		t.Fatal("no params should error")
	}
	if _, err := NewCustom([]Param{{Name: "", Values: []int{1}}}, nil, nil, nil); err == nil {
		t.Fatal("unnamed param should error")
	}
	if _, err := NewCustom([]Param{{Name: "x"}}, nil, nil, nil); err == nil {
		t.Fatal("empty values should error")
	}
	if _, err := NewCustom([]Param{{Name: "x", Values: []int{2, 2}}}, nil, nil, nil); err == nil {
		t.Fatal("non-ascending values should error")
	}
	if _, err := NewCustom([]Param{{Name: "x", Values: []int{0, 1}}}, nil, nil, nil); err == nil {
		t.Fatal("values below 1 should error (log legitimacy)")
	}
	// nil validate is allowed: range membership only.
	sp, err := NewCustom([]Param{{Name: "x", Values: []int{1, 2}}}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(Setting{2}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(Setting{3}); err == nil {
		t.Fatal("out-of-range must still fail")
	}
}

func TestCustomSpaceBasics(t *testing.T) {
	sp := customSpace(t)
	if sp.N() != 3 {
		t.Fatalf("N = %d", sp.N())
	}
	names := sp.Names()
	if names[0] != "a" || names[2] != "flag" {
		t.Fatalf("Names = %v", names)
	}
	def := sp.Default()
	if !def.Equal(Setting{2, 1, Off}) {
		t.Fatalf("Default = %v", def)
	}
	if err := sp.Validate(def); err != nil {
		t.Fatal(err)
	}
	if got := sp.Format(def); got != "a=2 b=1 flag=1" {
		t.Fatalf("Format = %q", got)
	}
}

func TestCustomSpaceConstraints(t *testing.T) {
	sp := customSpace(t)
	if err := sp.Validate(Setting{8, 4, Off}); err == nil {
		t.Fatal("custom constraint a*b>16 should reject")
	}
	if err := sp.Validate(Setting{8, 2, Off}); err != nil {
		t.Fatalf("a*b=16 should pass: %v", err)
	}
	if err := sp.Validate(Setting{8, 2}); err == nil {
		t.Fatal("wrong length should reject")
	}
	if err := sp.Validate(Setting{3, 2, Off}); err == nil {
		t.Fatal("out-of-range value should reject before custom rules")
	}
}

func TestCustomSpaceRandomAndRepair(t *testing.T) {
	sp := customSpace(t)
	rng := stats.NewRand(17)
	sawBig, sawFlag := false, false
	for i := 0; i < 300; i++ {
		s := sp.Random(rng)
		if err := sp.Validate(s); err != nil {
			t.Fatalf("Random produced invalid setting %v: %v", s, err)
		}
		if s[0] >= 4 {
			sawBig = true
		}
		if s[2] == On {
			sawFlag = true
		}
	}
	if !sawBig || !sawFlag {
		t.Fatal("random sampling misses regions of the custom space")
	}
	// Repair clamps the violating setting in place.
	s := Setting{8, 4, Off}
	sp.Repair(s, rng)
	if err := sp.Validate(s); err != nil {
		t.Fatalf("Repair left invalid setting %v: %v", s, err)
	}
}

func TestCustomSpaceBiasedSampling(t *testing.T) {
	sp := customSpace(t)
	rng := stats.NewRand(23)
	ones := 0
	const n = 1000
	for i := 0; i < n; i++ {
		s := sp.Random(rng)
		if s[1] == 1 {
			ones++
		}
	}
	// Geometric bias gives P(b=1) = 0.5 versus 1/3 under uniform draws;
	// 430/1000 separates the two hypotheses with huge margin.
	if ones < 430 {
		t.Fatalf("biased parameter drew 1 only %d/%d times", ones, n)
	}
}

func TestStencilSpaceFormatMatchesSettingString(t *testing.T) {
	sp := newSpace(t)
	s := sp.Default()
	if sp.Format(s) != s.String() {
		t.Fatal("Space.Format should agree with Setting.String for the stencil space")
	}
}
