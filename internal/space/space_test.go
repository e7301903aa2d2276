package space

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/stencil"
)

func newSpace(t *testing.T) *Space {
	t.Helper()
	sp, err := New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestNewRejectsInvalidStencil(t *testing.T) {
	bad := stencil.J3D7PT()
	bad.FLOPs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("New should reject an invalid stencil")
	}
}

func TestTableIParameterInventory(t *testing.T) {
	sp := newSpace(t)
	if len(sp.Params) != NumParams || NumParams != 19 {
		t.Fatalf("parameter count = %d, want 19", len(sp.Params))
	}
	names := ParamNames()
	for i, p := range sp.Params {
		if p.Name != names[i] {
			t.Errorf("param %d name = %s, want %s", i, p.Name, names[i])
		}
		if len(p.Values) == 0 {
			t.Errorf("param %s has no values", p.Name)
		}
		if p.Values[0] != 1 {
			t.Errorf("param %s starts at %d, want 1 (log legitimacy)", p.Name, p.Values[0])
		}
	}
	// Bool parameters take exactly {1,2}.
	for _, i := range []int{UseShared, UseConstant, UseStreaming, UseRetiming, UsePrefetching} {
		p := sp.Params[i]
		if p.Kind != KindBool || len(p.Values) != 2 || p.Values[0] != Off || p.Values[1] != On {
			t.Errorf("param %s should be bool {1,2}, got %v", p.Name, p.Values)
		}
	}
	// SD is {1,2,3}.
	if v := sp.Params[SD].Values; len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Errorf("SD values = %v, want {1,2,3}", v)
	}
	// TB ranges from Table I.
	if got := sp.Params[TBX].Values[len(sp.Params[TBX].Values)-1]; got != 512 {
		// j3d7pt grid is 512, so TBx caps at min(1024, 512).
		t.Errorf("TBx max = %d, want 512", got)
	}
	if got := sp.Params[TBZ].Values[len(sp.Params[TBZ].Values)-1]; got != 64 {
		t.Errorf("TBz max = %d, want 64", got)
	}
}

func TestPow2ValuesOnly(t *testing.T) {
	sp := newSpace(t)
	for _, p := range sp.Params {
		if p.Kind != KindPow2 {
			continue
		}
		for _, v := range p.Values {
			if v&(v-1) != 0 {
				t.Errorf("param %s value %d is not a power of two", p.Name, v)
			}
		}
	}
}

func TestDefaultIsValid(t *testing.T) {
	for _, st := range stencil.Suite() {
		sp, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(sp.Default()); err != nil {
			t.Errorf("%s: default setting invalid: %v", st.Name, err)
		}
	}
}

func TestValidateConstraints(t *testing.T) {
	sp := newSpace(t)
	base := sp.Default()

	cases := []struct {
		name   string
		mutate func(Setting)
		ok     bool
	}{
		{"default", func(s Setting) {}, true},
		{"wrong length", nil, false},
		{"tb too large", func(s Setting) { s[TBX], s[TBY], s[TBZ] = 512, 512, 64 }, false},
		{"tb exactly 1024", func(s Setting) { s[TBX], s[TBY], s[TBZ] = 512, 2, 1 }, true},
		{"sd without streaming", func(s Setting) { s[SD] = 2 }, false},
		{"sb without streaming", func(s Setting) { s[SB] = 4 }, false},
		{"prefetch without streaming", func(s Setting) { s[UsePrefetching] = On }, false},
		{"streaming canonical", func(s Setting) { s[UseStreaming] = On; s[SD] = 3; s[SB] = 8 }, true},
		{"sb exceeds dim", func(s Setting) { s[UseStreaming] = On; s[SD] = 3; s[SB] = 1024 }, false},
		{"uf beyond sb", func(s Setting) {
			s[UseStreaming] = On
			s[SD] = 3
			s[SB] = 2
			s[UFZ] = 8
		}, false},
		{"uf equals sb ok", func(s Setting) {
			s[UseStreaming] = On
			s[SD] = 3
			s[SB] = 8
			s[UFZ] = 8
		}, true},
		{"merge amplification over grid", func(s Setting) { s[UFX], s[CMX], s[BMX] = 64, 64, 64 }, false},
		{"cyclic along streaming dim", func(s Setting) {
			s[UseStreaming] = On
			s[SD] = 3
			s[SB] = 4
			s[CMZ] = 2
		}, false},
		{"cyclic along non-streaming dim ok", func(s Setting) {
			s[UseStreaming] = On
			s[SD] = 3
			s[SB] = 4
			s[CMX] = 2
		}, true},
		{"off-range value", func(s Setting) { s[TBX] = 3 }, false},
		{"negative impossible value", func(s Setting) { s[SB] = -2 }, false},
	}
	for _, c := range cases {
		var s Setting
		if c.mutate == nil {
			s = base[:5].Clone()
		} else {
			s = base.Clone()
			c.mutate(s)
		}
		err := sp.Validate(s)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: expected a constraint violation", c.name)
			} else if !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: error %v does not wrap ErrInvalid", c.name, err)
			}
		}
	}
}

// validateErrorDigest is the FNV-64a digest of Validate's error text over
// random valid settings of every Table III stencil, each mutated to break
// one explicit rule at a time, plus a non-cubic grid on which a legal SB
// can exceed M_SD. It pins the text a journal stores for a rejected setting.
const validateErrorDigest = "725fbe4069d46671"

func TestValidateErrorDigest(t *testing.T) {
	last := func(sp *Space, i int) int { return lastVal(sp.Params[i]) }
	mutations := []struct {
		name   string
		mutate func(sp *Space, s Setting) Setting
	}{
		{"short", func(sp *Space, s Setting) Setting { return s[:len(s)-1] }},
		{"long", func(sp *Space, s Setting) Setting { return append(s, 1) }},
		{"off-range", func(sp *Space, s Setting) Setting { s[TBX] = 3; return s }},
		{"beyond-max", func(sp *Space, s Setting) Setting { s[UFZ] = 2 * last(sp, UFZ); return s }},
		{"tb", func(sp *Space, s Setting) Setting {
			s[TBX], s[TBY], s[TBZ] = last(sp, TBX), last(sp, TBY), last(sp, TBZ)
			return s
		}},
		{"sd-off", func(sp *Space, s Setting) Setting {
			s[UseStreaming], s[SD] = Off, 2
			return s
		}},
		{"sb-off", func(sp *Space, s Setting) Setting {
			s[UseStreaming], s[SD], s[SB] = Off, 1, 4
			return s
		}},
		{"prefetch-off", func(sp *Space, s Setting) Setting {
			s[UseStreaming], s[SD], s[SB], s[UsePrefetching] = Off, 1, 1, On
			return s
		}},
		{"sb-dim", func(sp *Space, s Setting) Setting {
			s[UseStreaming], s[SD], s[SB] = On, 3, last(sp, SB)
			return s
		}},
		{"uf-sb", func(sp *Space, s Setting) Setting {
			s[UseStreaming], s[SD], s[SB], s[CMX], s[UFX] = On, 1, 2, 1, 4
			return s
		}},
		{"cyclic-sd", func(sp *Space, s Setting) Setting {
			s[UseStreaming], s[SD], s[SB], s[CMY] = On, 2, 1, 2
			return s
		}},
		{"amplification", func(sp *Space, s Setting) Setting {
			s[UFY], s[CMY], s[BMY] = last(sp, UFY), last(sp, CMY), last(sp, BMY)
			return s
		}},
	}
	rules := []string{
		"has 18 values, want 19", "has 20 values, want 19", "outside its range", "TB size",
		"without streaming", "prefetching without streaming", "exceeds M_SD", "exceeds SB",
		"along streaming dimension", "UF*CM*BM",
	}
	seen := map[string]bool{}
	h := fnv.New64a()
	stencils := append(stencil.Suite(), stencil.Shrink(stencil.J3D7PT(), 64, 32, 16))
	for si, st := range stencils {
		sp, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(int64(2000 + si))
		for n := 0; n < 40; n++ {
			base := sp.Random(rng)
			for _, m := range mutations {
				s := m.mutate(sp, base.Clone())
				err := sp.Validate(s)
				fmt.Fprintf(h, "%s %dx%dx%d %s %s: %v\n", st.Name, st.NX, st.NY, st.NZ, base.Key(), m.name, err)
				if err == nil {
					continue
				}
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("%s %s: %v does not wrap ErrInvalid", st.Name, m.name, err)
				}
				for _, r := range rules {
					if strings.Contains(err.Error(), r) {
						seen[r] = true
					}
				}
			}
		}
	}
	for _, r := range rules {
		if !seen[r] {
			t.Errorf("no mutation broke the rule reported as %q", r)
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != validateErrorDigest {
		t.Fatalf("Validate error digest = %s, want %s", got, validateErrorDigest)
	}
}

// TestParamIndex checks Index, whose powers of two skip the scan, against
// the position in Values, on the Table I ranges and on ranges where a power
// of two does not sit at position log2(v).
func TestParamIndex(t *testing.T) {
	params := append([]Param(nil), newSpace(t).Params...)
	params = append(params,
		Param{Name: "from2", Values: []int{2, 4, 8, 16}},
		Param{Name: "mixed", Values: []int{1, 3, 4, 6, 8}},
		Param{Name: "sparse", Values: []int{1, 2, 16, 1024}},
	)
	for _, p := range params {
		for v := -2; v <= 2048; v++ {
			want := -1
			for i, x := range p.Values {
				if x == v {
					want = i
				}
			}
			if got := p.Index(v); got != want {
				t.Fatalf("%s.Index(%d) = %d, want %d", p.Name, v, got, want)
			}
		}
	}
}

func TestRandomAlwaysValid(t *testing.T) {
	rng := stats.NewRand(7)
	for _, st := range stencil.Suite() {
		sp, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			s := sp.Random(rng)
			if err := sp.Validate(s); err != nil {
				t.Fatalf("%s: Random produced invalid setting %v: %v", st.Name, s, err)
			}
		}
	}
}

func TestRandomCoversSpace(t *testing.T) {
	sp := newSpace(t)
	rng := stats.NewRand(11)
	sawStreaming, sawShared, sawBigTB := false, false, false
	for i := 0; i < 500; i++ {
		s := sp.Random(rng)
		if s[UseStreaming] == On {
			sawStreaming = true
		}
		if s[UseShared] == On {
			sawShared = true
		}
		if s[TBX]*s[TBY]*s[TBZ] >= 256 {
			sawBigTB = true
		}
	}
	if !sawStreaming || !sawShared || !sawBigTB {
		t.Fatalf("random sampling misses regions: streaming=%v shared=%v bigTB=%v",
			sawStreaming, sawShared, sawBigTB)
	}
}

func TestRepairProducesCanonicalForm(t *testing.T) {
	sp := newSpace(t)
	rng := stats.NewRand(3)
	s := sp.Default()
	s[UseStreaming] = Off
	s[SD] = 3
	s[SB] = 64
	s[UsePrefetching] = On
	sp.Repair(s, rng)
	if s[SD] != 1 || s[SB] != 1 || s[UsePrefetching] != Off {
		t.Fatalf("Repair left non-canonical non-streaming form: %v", s)
	}
	s = sp.Default()
	s[TBX], s[TBY], s[TBZ] = 512, 512, 64
	sp.Repair(s, rng)
	if s[TBX]*s[TBY]*s[TBZ] > 1024 {
		t.Fatalf("Repair left oversized TB: %v", s)
	}
}

func TestSettingCloneEqualKey(t *testing.T) {
	sp := newSpace(t)
	a := sp.Default()
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should be equal")
	}
	b[TBX] = 1
	if a.Equal(b) {
		t.Fatal("mutated clone should differ")
	}
	if a.Key() == b.Key() {
		t.Fatal("different settings must have different keys")
	}
	if !a.Equal(a.Clone()) || a.Key() != a.Clone().Key() {
		t.Fatal("key/equality must be stable")
	}
	if a.Equal(a[:5]) {
		t.Fatal("length mismatch should not be equal")
	}
}

func TestSettingHashDistinguishes(t *testing.T) {
	sp := newSpace(t)
	rng := stats.NewRand(5)
	seen := map[uint64]string{}
	for i := 0; i < 2000; i++ {
		s := sp.Random(rng)
		h := s.Hash()
		if prev, ok := seen[h]; ok && prev != s.Key() {
			t.Fatalf("hash collision between %s and %s", prev, s.Key())
		}
		seen[h] = s.Key()
	}
}

func TestSettingString(t *testing.T) {
	sp := newSpace(t)
	str := sp.Default().String()
	if str == "" || len(str) < 20 {
		t.Fatalf("String too short: %q", str)
	}
	for _, want := range []string{"TBx=", "useShared=", "usePrefetching="} {
		if !contains(str, want) {
			t.Errorf("String missing %q: %s", want, str)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSizeUpperBoundExceeds100M(t *testing.T) {
	// Paper Sec. IV-B: the total space holds >100 million settings.
	sp := newSpace(t)
	if got := sp.SizeUpperBound(); got < 1e8 {
		t.Fatalf("SizeUpperBound = %g, want >= 1e8", got)
	}
}

func TestUnrollOf(t *testing.T) {
	if unrollOf(1) != UFX || unrollOf(2) != UFY || unrollOf(3) != UFZ {
		t.Fatal("unrollOf mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unrollOf(0) should panic")
		}
	}()
	unrollOf(0)
}

// Property: Repair is idempotent — repairing an arbitrary raw draw twice
// changes nothing the second time.
func TestRepairIdempotent(t *testing.T) {
	sp := newSpace(t)
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		s := make(Setting, NumParams)
		for i := range s {
			vals := sp.Params[i].Values
			s[i] = vals[r.Intn(len(vals))]
		}
		sp.Repair(s, r)
		once := s.Clone()
		sp.Repair(s, r)
		return s.Equal(once)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Repair never breaks an already-valid setting.
func TestRepairPreservesValidity(t *testing.T) {
	sp := newSpace(t)
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		s := sp.Random(r)
		before := s.Clone()
		sp.Repair(s, r)
		return sp.Validate(s) == nil && s.Equal(before)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomSetting(b *testing.B) {
	sp, err := New(stencil.RHS4Center())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sp.Random(rng)
	}
}

func BenchmarkValidate(b *testing.B) {
	sp, err := New(stencil.RHS4Center())
	if err != nil {
		b.Fatal(err)
	}
	s := sp.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sp.Validate(s); err != nil {
			b.Fatal(err)
		}
	}
}
