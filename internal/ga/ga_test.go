package ga

import (
	"math"
	"sort"
	"sync/atomic"
	"testing"
)

// valley is a smooth objective with a single minimum at m.
func valley(m int) func(int) float64 {
	return func(i int) float64 {
		d := float64(i - m)
		return 1 + d*d
	}
}

func TestExhaustiveSmallRange(t *testing.T) {
	opt := DefaultOptions()
	res := Minimize(20, valley(13), opt) // 20 <= 2*16
	if !res.Exhaustive {
		t.Fatal("small range should use exhaustive search")
	}
	if res.BestIndex != 13 || res.Evaluations != 20 {
		t.Fatalf("best=%d evals=%d", res.BestIndex, res.Evaluations)
	}
	if res.Generations != 0 {
		t.Fatal("exhaustive path should report zero generations")
	}
}

func TestGAFindsValley(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxGenerations = 60
	res := Minimize(4096, valley(1234), opt)
	if res.Exhaustive {
		t.Fatal("large range must use the GA")
	}
	// The GA must land close to the optimum (approximation, not exactness).
	if math.Abs(float64(res.BestIndex-1234)) > 200 {
		t.Fatalf("best index %d too far from optimum 1234 (value %g)", res.BestIndex, res.BestValue)
	}
	if res.Evaluations >= 4096/2 {
		t.Fatalf("GA evaluated %d of 4096 — no better than exhaustive", res.Evaluations)
	}
	if res.Generations == 0 {
		t.Fatal("GA should report generations")
	}
}

func TestApproximationStopsEarly(t *testing.T) {
	// A plateau objective: everything equally good. CV of top-n is 0, so
	// the approximation rule must fire on the first possible generation.
	opt := DefaultOptions()
	opt.MaxGenerations = 64
	res := Minimize(4096, func(i int) float64 { return 5 }, opt)
	if res.Generations > 3 {
		t.Fatalf("plateau should stop almost immediately, ran %d generations", res.Generations)
	}
}

func TestApproximationThresholdDisabled(t *testing.T) {
	// CVThreshold 0 never fires; the GA runs to MaxGenerations.
	opt := DefaultOptions()
	opt.CVThreshold = 0
	opt.MaxGenerations = 7
	res := Minimize(4096, valley(99), opt)
	if res.Generations != 7 {
		t.Fatalf("generations = %d, want full 7", res.Generations)
	}
}

func TestInvalidCandidatesSkipped(t *testing.T) {
	// Half the range is invalid (+Inf); the GA must still find the valid
	// minimum.
	eval := func(i int) float64 {
		if i%2 == 1 {
			return math.Inf(1)
		}
		return valley(500)(i)
	}
	opt := DefaultOptions()
	opt.MaxGenerations = 60
	res := Minimize(2048, eval, opt)
	if res.BestIndex%2 == 1 {
		t.Fatal("GA returned an invalid candidate")
	}
	if math.Abs(float64(res.BestIndex-500)) > 250 {
		t.Fatalf("best %d too far from 500", res.BestIndex)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxGenerations = 20
	a := Minimize(4096, valley(777), opt)
	b := Minimize(4096, valley(777), opt)
	if a.BestIndex != b.BestIndex || a.Evaluations != b.Evaluations || a.Generations != b.Generations {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	opt.Seed = 999
	c := Minimize(4096, valley(777), opt)
	if c.Evaluations == a.Evaluations && c.BestIndex == a.BestIndex && c.Generations == a.Generations {
		t.Log("different seed produced identical run (possible but unlikely)")
	}
}

func TestMemoizationCountsDistinct(t *testing.T) {
	var calls int64
	eval := func(i int) float64 {
		atomic.AddInt64(&calls, 1)
		return valley(100)(i)
	}
	opt := DefaultOptions()
	opt.MaxGenerations = 30
	res := Minimize(1024, eval, opt)
	if int64(res.Evaluations) != atomic.LoadInt64(&calls) {
		t.Fatalf("eval called %d times but %d distinct evaluations reported — memoization broken",
			calls, res.Evaluations)
	}
}

func TestZeroAndNegativeCount(t *testing.T) {
	res := Minimize(0, valley(0), DefaultOptions())
	if res.BestIndex != -1 || !math.IsInf(res.BestValue, 1) {
		t.Fatalf("count 0 → %+v", res)
	}
	res = Minimize(-5, valley(0), DefaultOptions())
	if res.BestIndex != -1 {
		t.Fatalf("negative count → %+v", res)
	}
}

func TestSingleCandidate(t *testing.T) {
	res := Minimize(1, func(i int) float64 { return 3.5 }, DefaultOptions())
	if res.BestIndex != 0 || res.BestValue != 3.5 || res.Evaluations != 1 {
		t.Fatalf("%+v", res)
	}
}

func TestDegenerateOptionsFallBack(t *testing.T) {
	opt := DefaultOptions()
	opt.SubPopulations = 0
	res := Minimize(5000, valley(42), opt)
	if !res.Exhaustive || res.BestIndex != 42 {
		t.Fatalf("degenerate options should fall back to exhaustive: %+v", res)
	}
}

func TestRuggedMultimodal(t *testing.T) {
	// Many local minima; global at 3072. The GA with mutation should not
	// get stuck at a terrible local optimum: require landing within the
	// best 5% of values.
	eval := func(i int) float64 {
		x := float64(i)
		return 10 + 5*math.Sin(x/37) + 3*math.Sin(x/101) + math.Abs(x-3072)/512
	}
	opt := DefaultOptions()
	opt.MaxGenerations = 64
	res := Minimize(4096, eval, opt)

	// Compute the exact 5th percentile by scanning.
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = eval(i)
	}
	best := vals[0]
	for _, v := range vals {
		if v < best {
			best = v
		}
	}
	if res.BestValue > best*1.25 {
		t.Fatalf("GA best %.3f vs global %.3f — stuck in a poor local optimum", res.BestValue, best)
	}
}

func BenchmarkMinimize4096(b *testing.B) {
	opt := DefaultOptions()
	opt.MaxGenerations = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Minimize(4096, valley(1234), opt)
	}
}

// recordingEval wraps an objective and records the exact probe sequence,
// which the GA fixes for any sub-population count: the islands evolve in
// lockstep on the caller's goroutine.
func recordingEval(f func(int) float64) (func(int) float64, *[]int) {
	var seq []int
	return func(i int) float64 {
		seq = append(seq, i)
		return f(i)
	}, &seq
}

// TestSeedsEmptyIsByteIdentical pins the warm-start no-op contract: no
// seeds, an empty slice and all-out-of-range seeds must leave the classic
// run untouched — same result AND same probe sequence — both for one
// population of 32 and for the paper's two islands of 16.
func TestSeedsEmptyIsByteIdentical(t *testing.T) {
	for _, shape := range []struct{ islands, size int }{{1, 32}, {2, 16}} {
		base := DefaultOptions()
		base.SubPopulations = shape.islands
		base.PopSize = shape.size
		base.MaxGenerations = 40

		run := func(seeds []int) (Result, []int) {
			opt := base
			opt.Seeds = seeds
			eval, seq := recordingEval(valley(1234))
			res := Minimize(4096, eval, opt)
			return res, *seq
		}

		wantRes, wantSeq := run(nil)
		for _, seeds := range [][]int{nil, {}, {-1, 4096, 99999}} {
			gotRes, gotSeq := run(seeds)
			if gotRes != wantRes {
				t.Fatalf("%d×%d: seeds %v changed the result: %+v vs %+v", shape.islands, shape.size, seeds, gotRes, wantRes)
			}
			if len(gotSeq) != len(wantSeq) {
				t.Fatalf("%d×%d: seeds %v changed probe count: %d vs %d", shape.islands, shape.size, seeds, len(gotSeq), len(wantSeq))
			}
			for i := range gotSeq {
				if gotSeq[i] != wantSeq[i] {
					t.Fatalf("%d×%d: seeds %v changed probe %d: %d vs %d", shape.islands, shape.size, seeds, i, gotSeq[i], wantSeq[i])
				}
			}
		}
	}
}

// TestSeedsInjectNeedle: on a needle-in-a-haystack objective the random GA
// has no gradient to follow, but a seeded needle must be found — proof the
// seed genes actually enter the initial population.
func TestSeedsInjectNeedle(t *testing.T) {
	const needle = 3333
	eval := func(i int) float64 {
		if i == needle {
			return 0
		}
		return 5
	}
	opt := DefaultOptions()
	opt.MaxGenerations = 30
	opt.Seeds = []int{needle}
	res := Minimize(1<<16, eval, opt)
	if res.Exhaustive {
		t.Fatal("range too small; test needs the GA path")
	}
	if res.BestIndex != needle || res.BestValue != 0 {
		t.Fatalf("seeded needle not found: %+v", res)
	}

	// Determinism with seeds: the same run twice is identical.
	if again := Minimize(1<<16, eval, opt); again != res {
		t.Fatalf("seeded run not deterministic: %+v vs %+v", again, res)
	}
}

// TestSeedsSpreadAcrossIslands: more seeds than sub-populations must land in
// distinct slots, not overwrite one another.
func TestSeedsSpreadAcrossIslands(t *testing.T) {
	needles := []int{111, 2222, 3333, 4444}
	eval := func(i int) float64 {
		for rank, n := range needles {
			if i == n {
				return float64(rank) // needle 111 is the global optimum
			}
		}
		return 50
	}
	opt := DefaultOptions()
	opt.MaxGenerations = 30
	opt.Seeds = needles
	res := Minimize(1<<16, eval, opt)
	if res.BestIndex != needles[0] || res.BestValue != 0 {
		t.Fatalf("best seeded needle lost: %+v", res)
	}
}

// TestRankByFitMatchesSortSlice pins the neighbour ranking to the order
// sort.Slice gave it, over every assignment of ties, ±Inf and NaN.
func TestRankByFitMatchesSortSlice(t *testing.T) {
	fits := []float64{math.Inf(-1), 1, 2, math.Inf(1), math.NaN()}
	for c := 0; c < 625; c++ {
		var nbrs [4]individual
		for i, code := 0, c; i < len(nbrs); i, code = i+1, code/len(fits) {
			nbrs[i] = individual{gene: uint64(i), fit: fits[code%len(fits)]}
		}
		want := append([]individual(nil), nbrs[:]...)
		sort.Slice(want, func(a, b int) bool { return want[a].fit < want[b].fit })
		rankByFit(&nbrs)
		for i := range nbrs {
			if nbrs[i].gene != want[i].gene {
				t.Fatalf("case %d: ranked %v, sort.Slice gives %v", c, nbrs, want)
			}
		}
	}
}
