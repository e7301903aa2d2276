package stats

import (
	"encoding"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Fatalf("Mean = %v,%v want 5", m, err)
	}
	v, err := Variance(xs)
	if err != nil || v != 4 {
		t.Fatalf("Variance = %v,%v want 4", v, err)
	}
	sd, err := StdDev(xs)
	if err != nil || sd != 2 {
		t.Fatalf("StdDev = %v,%v want 2", sd, err)
	}
}

func TestEmptyErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Variance(nil); err != ErrEmpty {
		t.Fatalf("Variance(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := CV(nil); err != ErrEmpty {
		t.Fatalf("CV(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := PCC(nil, nil); err != ErrEmpty {
		t.Fatalf("PCC(nil,nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
}

func TestCV(t *testing.T) {
	// Constant data: CV must be zero.
	cv, err := CV([]float64{3, 3, 3})
	if err != nil || cv != 0 {
		t.Fatalf("CV(const) = %v,%v want 0,nil", cv, err)
	}
	// Known value: sd=2, mean=5 -> 0.4.
	cv, err = CV([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || !almostEq(cv, 0.4, 1e-12) {
		t.Fatalf("CV = %v,%v want 0.4", cv, err)
	}
	// Zero mean is undefined.
	if _, err := CV([]float64{-1, 1}); err != ErrZeroMean {
		t.Fatalf("CV zero-mean err = %v, want ErrZeroMean", err)
	}
	// Negative mean uses |mu| so CV stays non-negative.
	cv, err = CV([]float64{-2, -4, -4, -4, -5, -5, -7, -9})
	if err != nil || !almostEq(cv, 0.4, 1e-12) {
		t.Fatalf("CV(neg) = %v,%v want 0.4", cv, err)
	}
}

func TestPCC(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// Perfect positive linear correlation.
	ys := []float64{2, 4, 6, 8, 10}
	r, err := PCC(xs, ys)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Fatalf("PCC = %v,%v want 1", r, err)
	}
	// Perfect negative linear correlation.
	ys = []float64{10, 8, 6, 4, 2}
	r, err = PCC(xs, ys)
	if err != nil || !almostEq(r, -1, 1e-12) {
		t.Fatalf("PCC = %v,%v want -1", r, err)
	}
	// Constant series is defined as zero correlation.
	r, err = PCC(xs, []float64{7, 7, 7, 7, 7})
	if err != nil || r != 0 {
		t.Fatalf("PCC(const) = %v,%v want 0", r, err)
	}
	if _, err := PCC(xs, ys[:3]); err != ErrLength {
		t.Fatalf("PCC length err = %v, want ErrLength", err)
	}
}

func TestPCCBounded(t *testing.T) {
	f := func(a []float64) bool {
		if len(a) < 2 {
			return true
		}
		n := len(a) / 2
		xs, ys := a[:n], a[n:2*n]
		for _, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r, err := PCC(xs, ys)
		if err != nil {
			return false
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRSE(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	pred := []float64{1, 2, 3, 4}
	r, err := RSE(obs, pred, 1)
	if err != nil || r != 0 {
		t.Fatalf("RSE perfect = %v,%v want 0", r, err)
	}
	pred = []float64{2, 3, 4, 5} // each residual 1, RSS=4, n-p=3
	r, err = RSE(obs, pred, 1)
	if err != nil || !almostEq(r, math.Sqrt(4.0/3.0), 1e-12) {
		t.Fatalf("RSE = %v,%v", r, err)
	}
	// Saturated fit reports +Inf so it is never selected.
	r, err = RSE(obs, pred, 4)
	if err != nil || !math.IsInf(r, 1) {
		t.Fatalf("RSE saturated = %v,%v want +Inf", r, err)
	}
	if _, err := RSE(obs, pred[:2], 1); err != ErrLength {
		t.Fatalf("RSE length err = %v", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if m, _ := Min(xs); m != -1 {
		t.Fatalf("Min = %v", m)
	}
	if m, _ := Max(xs); m != 7 {
		t.Fatalf("Max = %v", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q, _ := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q, _ := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q, _ := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("q0.5 = %v", q)
	}
	if q, _ := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q0.25 = %v", q)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("Quantile(1.5) should error")
	}
	// Input must not be reordered.
	if xs[0] != 1 || xs[4] != 5 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestTopN(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	top := TopN(xs, 3)
	want := []float64{1, 2, 3}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopN = %v", top)
		}
	}
	if got := TopN(xs, 99); len(got) != 5 {
		t.Fatalf("TopN over-capped len = %d", len(got))
	}
	if got := TopN(xs, -1); len(got) != 0 {
		t.Fatalf("TopN(-1) len = %d", len(got))
	}
	if xs[0] != 5 {
		t.Fatal("TopN mutated its input")
	}
}

func TestHistogram(t *testing.T) {
	edges := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	xs := []float64{0, 0.1, 0.2, 0.5, 0.99, 1.0, -0.5, 1.5}
	counts, err := Histogram(xs, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 1, 0, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("Histogram = %v, want %v", counts, want)
		}
	}
	if _, err := Histogram(xs, []float64{1}); err == nil {
		t.Fatal("single edge should error")
	}
	if _, err := Histogram(xs, []float64{0, 0}); err == nil {
		t.Fatal("non-increasing edges should error")
	}
}

func TestHistogramConservation(t *testing.T) {
	f := func(raw []float64) bool {
		edges := []float64{0, 0.25, 0.5, 0.75, 1.0}
		inRange := 0
		var xs []float64
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			v = math.Abs(math.Mod(v, 2)) // spread over [0,2)
			xs = append(xs, v)
			if v >= 0 && v <= 1 {
				inRange++
			}
		}
		counts, err := Histogram(xs, edges)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == inRange
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	fr := Normalize([]int{1, 3})
	if !almostEq(fr[0], 0.25, 1e-12) || !almostEq(fr[1], 0.75, 1e-12) {
		t.Fatalf("Normalize = %v", fr)
	}
	fr = Normalize([]int{0, 0})
	if fr[0] != 0 || fr[1] != 0 {
		t.Fatalf("Normalize zeros = %v", fr)
	}
}

func TestPow2Helpers(t *testing.T) {
	if !IsPow2(1) || !IsPow2(1024) || IsPow2(0) || IsPow2(3) || IsPow2(-4) {
		t.Fatal("IsPow2 misbehaves")
	}
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
	ps := Pow2sUpTo(16)
	want := []int{1, 2, 4, 8, 16}
	if len(ps) != len(want) {
		t.Fatalf("Pow2sUpTo = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("Pow2sUpTo = %v", ps)
		}
	}
	if got := Pow2sUpTo(0); got != nil {
		t.Fatalf("Pow2sUpTo(0) = %v, want nil", got)
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must generate same sequence")
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/100", same)
	}
}

func TestSplitMix64Float64Range(t *testing.T) {
	g := NewSplitMix64(7)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestMix64Stateless(t *testing.T) {
	if Mix64(5) != Mix64(5) {
		t.Fatal("Mix64 must be deterministic")
	}
	if Mix64(5) == Mix64(6) {
		t.Fatal("Mix64 adjacent inputs should differ")
	}
}

// TestKeyHashIsFNV1a says why jitter and fault streams survive the
// hash's consolidation: KeyHash is hash/fnv's FNV-1a started from the
// repo's frozen offset basis, and its string and []byte forms agree.
func TestKeyHashIsFNV1a(t *testing.T) {
	const basis = 1469598103934665603
	if std := fnv.New64a().Sum64(); std == basis {
		t.Fatalf("basis %d unexpectedly equals the standard FNV basis", std)
	}
	for _, key := range []string{"", "a", "8,8,1,2,0,1,1,0,32", "x|y|z", "hello, world", "\xff\x00\x80"} {
		ref := fnv.New64a()
		state, err := ref.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(state[len(state)-8:], basis)
		if err := ref.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		ref.Write([]byte(key))
		if got, want := KeyHash(key), ref.Sum64(); got != want {
			t.Errorf("KeyHash(%q) = %#x, hash/fnv from the basis = %#x", key, got, want)
		}
		if KeyHash([]byte(key)) != KeyHash(key) {
			t.Errorf("KeyHash(%q): []byte and string forms differ", key)
		}
	}
}

func BenchmarkCV(b *testing.B) {
	xs := make([]float64, 1024)
	g := NewSplitMix64(1)
	for i := range xs {
		xs[i] = g.Float64() + 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CV(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCC(b *testing.B) {
	xs := make([]float64, 1024)
	ys := make([]float64, 1024)
	g := NewSplitMix64(1)
	for i := range xs {
		xs[i] = g.Float64()
		ys[i] = g.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PCC(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
