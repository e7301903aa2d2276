package grouping

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func testDataset(t *testing.T, n int) (*dataset.Dataset, *space.Space) {
	t.Helper()
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(11), n)
	if err != nil {
		t.Fatal(err)
	}
	return ds, sp
}

func TestPairCVsShape(t *testing.T) {
	ds, sp := testDataset(t, 64)
	pairs := PairCVs(ds, sp)
	want := space.NumParams * (space.NumParams - 1) / 2
	if len(pairs) != want {
		t.Fatalf("pair count = %d, want %d", len(pairs), want)
	}
	finite := 0
	for _, p := range pairs {
		if p.A >= p.B {
			t.Fatalf("pair (%d,%d) not ordered", p.A, p.B)
		}
		if p.CV < 0 {
			t.Fatalf("negative CV %v", p.CV)
		}
		if !math.IsInf(p.CV, 1) {
			finite++
		}
	}
	if finite < want/2 {
		t.Fatalf("only %d/%d pairs have finite CV", finite, want)
	}
}

func TestDirectionalCVInsufficientData(t *testing.T) {
	// A dataset where a parameter takes a single value must give +Inf.
	ds, sp := testDataset(t, 16)
	for i := range ds.Samples {
		ds.Samples[i].Setting[space.TBX] = 64 // force constant
	}
	pairs := PairCVs(ds, sp)
	for _, p := range pairs {
		if p.A == space.TBX || p.B == space.TBX {
			// min(inf, other-direction) — the other direction can still be
			// finite, so just assert nothing panicked and CVs are valid.
			if p.CV < 0 {
				t.Fatal("invalid CV")
			}
		}
	}
}

func TestGroupsPartition(t *testing.T) {
	ds, sp := testDataset(t, 64)
	pairs := PairCVs(ds, sp)
	groups := Groups(pairs, 4)
	if err := Validate(groups); err != nil {
		t.Fatalf("groups not a partition: %v", err)
	}
	for _, g := range groups {
		if len(g) > 4 {
			t.Fatalf("group exceeds cap: %v", g)
		}
	}
	if len(groups) < 5 {
		t.Fatalf("suspiciously few groups: %d", len(groups))
	}
}

func TestGroupsDefaultCap(t *testing.T) {
	ds, sp := testDataset(t, 32)
	groups := Groups(PairCVs(ds, sp), 0)
	for _, g := range groups {
		if len(g) > 4 {
			t.Fatalf("default cap exceeded: %v", g)
		}
	}
	if err := Validate(groups); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsStrongPairsJoin(t *testing.T) {
	// Synthetic CVs: (0,1) and (1,2) strongly correlated, everything else
	// weak. 0,1,2 must land in one group.
	var pairs []PairCV
	n := space.NumParams
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			cv := 10.0
			if (a == 0 && b == 1) || (a == 1 && b == 2) {
				cv = 0.01
			}
			pairs = append(pairs, PairCV{A: a, B: b, CV: cv})
		}
	}
	groups := Groups(pairs, 4)
	if err := Validate(groups); err != nil {
		t.Fatal(err)
	}
	gi := -1
	for i, g := range groups {
		for _, p := range g {
			if p == 0 {
				gi = i
			}
		}
	}
	has := map[int]bool{}
	for _, p := range groups[gi] {
		has[p] = true
	}
	if !has[0] || !has[1] || !has[2] {
		t.Fatalf("parameters 0,1,2 should share a group, got %v", groups[gi])
	}
}

func TestGroupsWeakPairsStaySingletons(t *testing.T) {
	// All pairs equally weak: alternation should produce many singletons,
	// not one giant group.
	var pairs []PairCV
	n := space.NumParams
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, PairCV{A: a, B: b, CV: 5.0})
		}
	}
	groups := Groups(pairs, 4)
	if err := Validate(groups); err != nil {
		t.Fatal(err)
	}
	singles := 0
	for _, g := range groups {
		if len(g) == 1 {
			singles++
		}
	}
	if singles == 0 {
		t.Fatal("expected some singleton groups under uniform weak correlation")
	}
}

func TestValidateCatchesBadPartitions(t *testing.T) {
	if err := Validate([][]int{{0, 1}}); err == nil {
		t.Fatal("incomplete partition should fail")
	}
	all := make([]int, space.NumParams)
	for i := range all {
		all[i] = i
	}
	dup := append([][]int{}, []int{0}, all)
	if err := Validate(dup); err == nil {
		t.Fatal("duplicate coverage should fail")
	}
	if err := Validate([][]int{{}, all}); err == nil {
		t.Fatal("empty group should fail")
	}
	bad := append([][]int{}, []int{-1}, all[1:])
	if err := Validate(bad); err == nil {
		t.Fatal("out-of-range index should fail")
	}
}

func TestFormat(t *testing.T) {
	s := Format([][]int{{0, 1}, {2}})
	if !strings.Contains(s, "TBx,TBy") || !strings.Contains(s, "|") || !strings.Contains(s, "TBz") {
		t.Fatalf("Format = %q", s)
	}
}

func BenchmarkPairCVs(b *testing.B) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(1), 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PairCVs(ds, sp)
	}
}
