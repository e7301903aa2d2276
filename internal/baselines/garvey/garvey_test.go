package garvey

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func fixture(t testing.TB) (*sim.Simulator, *dataset.Dataset) {
	t.Helper()
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(31), 64)
	if err != nil {
		t.Fatal(err)
	}
	return s, ds
}

func TestDimensionGroupsCoverSearchedParams(t *testing.T) {
	groups := dimensionGroups()
	if len(groups) != 4 {
		t.Fatalf("expected 4 expert groups, got %d", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		for _, p := range g {
			if seen[p] {
				t.Fatalf("parameter %d in two groups", p)
			}
			seen[p] = true
		}
	}
	// Memory flags are intentionally absent (fixed by the forest).
	if seen[space.UseShared] || seen[space.UseConstant] {
		t.Fatal("memory flags must not be re-searched")
	}
	// Every x/y/z geometry parameter is covered.
	for _, p := range []int{space.TBX, space.UFY, space.CMZ, space.BMX, space.SD, space.SB} {
		if !seen[p] {
			t.Fatalf("parameter %d missing from groups", p)
		}
	}
}

func TestPredictMemoryType(t *testing.T) {
	_, ds := fixture(t)
	sh, co, err := predictMemoryType(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{sh, co} {
		if v != space.Off && v != space.On {
			t.Fatalf("prediction outside {Off,On}: %d/%d", sh, co)
		}
	}
	// Deterministic: the forest is seeded.
	sh2, co2, err := predictMemoryType(ds)
	if err != nil || sh != sh2 || co != co2 {
		t.Fatal("memory prediction not deterministic")
	}
}

func TestEnumerateSize(t *testing.T) {
	s, _ := fixture(t)
	sp := s.Space()
	group := []int{space.UseStreaming, space.SD}
	n := groupSize(sp, group)
	if n != 2*3 {
		t.Fatalf("groupSize = %d combos, want 6", n)
	}
	// Decoding every index lists each combination once, last parameter
	// fastest.
	seen := map[[2]int]bool{}
	set := sp.Default()
	for k := range n {
		decode(sp, group, k, set)
		c := [2]int{set[space.UseStreaming], set[space.SD]}
		if seen[c] {
			t.Fatalf("index %d decodes to %v again", k, c)
		}
		seen[c] = true
		if want := sp.Params[space.SD].Values[k%3]; c[1] != want {
			t.Fatalf("index %d: SD = %d, want %d", k, c[1], want)
		}
	}
}

func TestSampleRatio(t *testing.T) {
	out := sampleIndices(100, stats.NewRand(1))
	if len(out) != 10 {
		t.Fatalf("sampled %d of 100 at 10%%", len(out))
	}
	seen := map[int]bool{}
	for _, k := range out {
		if k < 0 || k >= 100 || seen[k] {
			t.Fatalf("index %d out of range or repeated", k)
		}
		seen[k] = true
	}
	if got := sampleIndices(1, stats.NewRand(1)); len(got) != 1 {
		t.Fatal("a product of one combination keeps it")
	}
}

func TestTuneImprovesOnDefault(t *testing.T) {
	s, ds := fixture(t)
	g := New()
	eng := engine.New(s)
	if err := g.Tune(context.Background(), eng, ds, 5, nil); err != nil {
		t.Fatal(err)
	}
	best, ms, _ := eng.Best()
	def, err := s.Measure(s.Space().Default())
	if err != nil {
		t.Fatal(err)
	}
	if ms >= def {
		t.Fatalf("garvey best %.3f no better than default %.3f", ms, def)
	}
	if err := s.Space().Validate(best); err != nil {
		t.Fatal(err)
	}
}

// maxTuneAllocs and maxTuneKB bound the allocations and the allocated
// kilobytes of one Tune on the package fixture (helmholtz/a100, dataset 64)
// at budget 400 s and seed 1.
const (
	maxTuneAllocs = 2000
	maxTuneKB     = 580
)

func TestTuneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	s, ds := fixture(t)
	tune := func() {
		if err := New().Tune(context.Background(), engine.New(s, engine.WithBudget(400)), ds, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, tune)
	// Bytes the same way: one goroutine, three tunes after AllocsPerRun's
	// warm-up, averaged.
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		tune()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	if allocs > maxTuneAllocs {
		t.Fatalf("one Tune made %.0f allocations, want at most %d", allocs, maxTuneAllocs)
	}
	if kb > maxTuneKB {
		t.Fatalf("one Tune allocated %.0f KB, want at most %d", kb, maxTuneKB)
	}
	t.Logf("one Tune made %.0f allocations of %.0f KB", allocs, kb)
}

// BenchmarkTune runs one Garvey campaign on the package fixture at budget
// 400 s, the seed cycling through 1 to 8.
func BenchmarkTune(b *testing.B) {
	s, ds := fixture(b)
	g := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Tune(context.Background(), engine.New(s, engine.WithBudget(400)), ds, int64(1+i%8), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictMemoryType trains the forest on the fixture's dataset, the
// shape Tune trains on: 64 settings whose columns hold 2 to 9 distinct
// values, and predicts each flag pair over it.
func BenchmarkPredictMemoryType(b *testing.B) {
	_, ds := fixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := predictMemoryType(ds); err != nil {
			b.Fatal(err)
		}
	}
}
