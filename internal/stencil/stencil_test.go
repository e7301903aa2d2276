package stencil

import (
	"math"
	"testing"
)

func TestSuiteMatchesTableIII(t *testing.T) {
	want := []struct {
		name     string
		n        int
		order    int
		flops    int
		ioArrays int
	}{
		{"j3d7pt", 512, 1, 10, 2},
		{"j3d27pt", 512, 1, 32, 2},
		{"helmholtz", 512, 2, 17, 2},
		{"cheby", 512, 1, 38, 5},
		{"hypterm", 320, 4, 358, 13},
		{"addsgd4", 320, 2, 373, 10},
		{"addsgd6", 320, 3, 626, 10},
		{"rhs4center", 320, 2, 666, 8},
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite size = %d, want %d", len(suite), len(want))
	}
	for i, w := range want {
		s := suite[i]
		if s.Name != w.name {
			t.Errorf("suite[%d].Name = %s, want %s", i, s.Name, w.name)
		}
		if s.NX != w.n || s.NY != w.n || s.NZ != w.n {
			t.Errorf("%s grid = %dx%dx%d, want %d³", s.Name, s.NX, s.NY, s.NZ, w.n)
		}
		if s.Order != w.order {
			t.Errorf("%s order = %d, want %d", s.Name, s.Order, w.order)
		}
		if s.FLOPs != w.flops {
			t.Errorf("%s FLOPs = %d, want %d", s.Name, s.FLOPs, w.flops)
		}
		if got := s.Inputs + s.Outputs; got != w.ioArrays {
			t.Errorf("%s IO arrays = %d, want %d", s.Name, got, w.ioArrays)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if s := ByName("cheby"); s == nil || s.Name != "cheby" {
		t.Fatalf("ByName(cheby) = %v", s)
	}
	if s := ByName("nope"); s != nil {
		t.Fatalf("ByName(nope) = %v, want nil", s)
	}
}

func TestValidateRejectsBadStencils(t *testing.T) {
	base := J3D7PT()
	cases := []struct {
		name   string
		mutate func(*Stencil)
	}{
		{"empty name", func(s *Stencil) { s.Name = "" }},
		{"zero grid", func(s *Stencil) { s.NX = 0 }},
		{"negative order", func(s *Stencil) { s.Order = -1 }},
		{"no inputs", func(s *Stencil) { s.Inputs = 0 }},
		{"no outputs", func(s *Stencil) { s.Outputs = 0 }},
		{"no taps", func(s *Stencil) { s.Taps = nil }},
		{"zero flops", func(s *Stencil) { s.FLOPs = 0 }},
		{"tap array out of range", func(s *Stencil) { s.Taps[0].Array = 5 }},
		{"tap offset beyond order", func(s *Stencil) { s.Taps[1].DX = 3 }},
	}
	for _, c := range cases {
		s := *base
		s.Taps = append([]Tap(nil), base.Taps...)
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid stencil", c.name)
		}
	}
}

func TestStarBoxTapCounts(t *testing.T) {
	if got := len(StarTaps(1, 0)); got != 7 {
		t.Errorf("StarTaps(1) = %d taps, want 7", got)
	}
	if got := len(StarTaps(4, 0)); got != 25 {
		t.Errorf("StarTaps(4) = %d taps, want 25", got)
	}
	if got := len(BoxTaps(1, 0)); got != 27 {
		t.Errorf("BoxTaps(1) = %d taps, want 27", got)
	}
	if got := len(BoxTaps(2, 0)); got != 125 {
		t.Errorf("BoxTaps(2) = %d taps, want 125", got)
	}
}

func TestStarTapsCoeffSum(t *testing.T) {
	// Smoothing kernels must sum to 1 so iterated application is stable.
	for order := 1; order <= 4; order++ {
		sum := 0.0
		for _, tp := range StarTaps(order, 0) {
			sum += tp.Coeff
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("StarTaps(%d) coeff sum = %v, want 1", order, sum)
		}
	}
	sum := 0.0
	for _, tp := range BoxTaps(2, 0) {
		sum += tp.Coeff
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("BoxTaps(2) coeff sum = %v, want 1", sum)
	}
}

func TestDimAndPoints(t *testing.T) {
	s := Hypterm()
	if s.Dim(1) != 320 || s.Dim(2) != 320 || s.Dim(3) != 320 {
		t.Fatal("Dim mismatch")
	}
	if s.Points() != 320*320*320 {
		t.Fatalf("Points = %d", s.Points())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dim(0) should panic")
		}
	}()
	s.Dim(0)
}

// arithmeticIntensity returns FLOPs per compulsory byte, the roofline
// abscissa that places a stencil between the memory- and compute-bound
// regimes.
func arithmeticIntensity(s *Stencil) float64 {
	return float64(s.TotalFLOPs()) / float64(s.BytesMoved())
}

func TestWorkAndIntensity(t *testing.T) {
	s := J3D7PT()
	if got := s.TotalFLOPs(); got != 512*512*512*10 {
		t.Fatalf("TotalFLOPs = %d", got)
	}
	if got := s.BytesMoved(); got != 512*512*512*2*8 {
		t.Fatalf("BytesMoved = %d", got)
	}
	ai := arithmeticIntensity(s)
	if math.Abs(ai-10.0/16.0) > 1e-12 {
		t.Fatalf("AI = %v", ai)
	}
	// High-FLOP stencils must have much higher intensity — that is what
	// drives the compute/memory-bound split in the simulator.
	if arithmeticIntensity(RHS4Center()) <= 4*ai {
		t.Fatal("rhs4center should be far more compute-intense than j3d7pt")
	}
}

func TestUniqueOffsets(t *testing.T) {
	if got := J3D7PT().UniqueOffsets(); got != 7 {
		t.Fatalf("j3d7pt unique offsets = %d", got)
	}
	// Duplicated taps collapse.
	s := J3D7PT()
	s.Taps = append(s.Taps, s.Taps[0])
	if got := s.UniqueOffsets(); got != 7 {
		t.Fatalf("unique offsets with dup = %d", got)
	}
}

func TestHaloVolume(t *testing.T) {
	s := Helmholtz() // order 2
	hv := s.HaloVolume(8, 8, 1)
	want := float64(12*12*5) / float64(8*8*1)
	if math.Abs(hv-want) > 1e-12 {
		t.Fatalf("HaloVolume = %v, want %v", hv, want)
	}
	if s.HaloVolume(0, 8, 8) != 1 {
		t.Fatal("degenerate tile should report 1")
	}
	// Larger tiles amortize halos better.
	if s.HaloVolume(16, 16, 4) >= s.HaloVolume(4, 4, 1) {
		t.Fatal("larger tile should have smaller halo factor")
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := NewGrid(4, 5, 6, 2)
	g.Set(0, 0, 0, 3.5)
	g.Set(3, 4, 5, -1.25)
	g.Set(-2, -2, -2, 9) // halo corner
	if g.At(0, 0, 0) != 3.5 || g.At(3, 4, 5) != -1.25 || g.At(-2, -2, -2) != 9 {
		t.Fatal("grid get/set round trip failed")
	}
}

func TestGridMaxAbsDiff(t *testing.T) {
	g := NewGrid(3, 3, 3, 0)
	h := NewGrid(3, 3, 3, 0)
	h.Set(2, 2, 2, 0.5)
	d, err := g.MaxAbsDiff(h)
	if err != nil || d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v,%v", d, err)
	}
	bad := NewGrid(2, 3, 3, 0)
	if _, err := g.MaxAbsDiff(bad); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestNewGridPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0,...) should panic")
		}
	}()
	NewGrid(0, 1, 1, 0)
}

func TestApplyMatchesManualSweep(t *testing.T) {
	s := Shrink(Helmholtz(), 10, 9, 8)
	in, out := MakeGrids(s, s.NX, s.NY, s.NZ)
	if err := Apply(s, in, out, 3); err != nil {
		t.Fatal(err)
	}
	// Spot-check a handful of points against a direct tap evaluation.
	pts := [][3]int{{0, 0, 0}, {9, 8, 7}, {5, 4, 3}, {1, 7, 2}}
	for _, p := range pts {
		want := 0.0
		for _, tp := range s.Taps {
			want += tp.Coeff * in[tp.Array].At(p[0]+tp.DX, p[1]+tp.DY, p[2]+tp.DZ)
		}
		if got := out[0].At(p[0], p[1], p[2]); math.Abs(got-want) > 1e-13 {
			t.Fatalf("Apply at %v = %v, want %v", p, got, want)
		}
	}
}

func TestApplyWorkerCountInvariance(t *testing.T) {
	s := Shrink(Cheby(), 12, 11, 10)
	in, out1 := MakeGrids(s, s.NX, s.NY, s.NZ)
	_, out2 := MakeGrids(s, s.NX, s.NY, s.NZ)
	if err := Apply(s, in, out1, 1); err != nil {
		t.Fatal(err)
	}
	if err := Apply(s, in, out2, 7); err != nil {
		t.Fatal(err)
	}
	d, err := out1[0].MaxAbsDiff(out2[0])
	if err != nil || d != 0 {
		t.Fatalf("worker count changed results: diff=%v err=%v", d, err)
	}
}

func TestApplyMultiOutputStagger(t *testing.T) {
	s := Shrink(AddSGD4(), 8, 8, 8)
	in, out := MakeGrids(s, 8, 8, 8)
	if err := Apply(s, in, out, 0); err != nil {
		t.Fatal(err)
	}
	// Output k must equal output 0 scaled by OutputScale(k).
	for k := 1; k < s.Outputs; k++ {
		for _, p := range [][3]int{{0, 0, 0}, {7, 7, 7}, {3, 2, 1}} {
			want := out[0].At(p[0], p[1], p[2]) * OutputScale(k)
			got := out[k].At(p[0], p[1], p[2])
			if math.Abs(got-want) > 1e-13 {
				t.Fatalf("output %d at %v = %v, want %v", k, p, got, want)
			}
		}
	}
}

func TestApplyErrors(t *testing.T) {
	s := Shrink(J3D7PT(), 8, 8, 8)
	in, out := MakeGrids(s, 8, 8, 8)
	if err := Apply(s, nil, out, 1); err == nil {
		t.Fatal("missing inputs should error")
	}
	if err := Apply(s, in, nil, 1); err == nil {
		t.Fatal("missing outputs should error")
	}
	// Wrong extent.
	badIn := []*Grid{NewGrid(4, 8, 8, 1)}
	if err := Apply(s, badIn, out, 1); err == nil {
		t.Fatal("wrong extent should error")
	}
	// Insufficient halo.
	noHalo := []*Grid{NewGrid(8, 8, 8, 0)}
	if err := Apply(s, noHalo, out, 1); err == nil {
		t.Fatal("halo < order should error")
	}
	bad := *s
	bad.FLOPs = 0
	if err := Apply(&bad, in, out, 1); err == nil {
		t.Fatal("invalid stencil should error")
	}
}

func TestShrinkDoesNotAliasTaps(t *testing.T) {
	s := J3D7PT()
	c := Shrink(s, 8, 8, 8)
	c.Taps[0].Coeff = 99
	if s.Taps[0].Coeff == 99 {
		t.Fatal("Shrink aliases the tap slice")
	}
}

func BenchmarkApplyJ3D7PT32(b *testing.B) {
	s := Shrink(J3D7PT(), 32, 32, 32)
	in, out := MakeGrids(s, 32, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Apply(s, in, out, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyRHS4Center16(b *testing.B) {
	s := Shrink(RHS4Center(), 16, 16, 16)
	in, out := MakeGrids(s, 16, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Apply(s, in, out, 0); err != nil {
			b.Fatal(err)
		}
	}
}
