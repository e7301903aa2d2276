package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/pmnf"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// pipelineTo builds everything sampling needs from a real simulated dataset.
func pipelineTo(tb testing.TB) (*dataset.Dataset, *space.Space, [][]int, []metrics.Selected, map[string]*pmnf.Model, *sim.Simulator) {
	tb.Helper()
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		tb.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(41), 96)
	if err != nil {
		tb.Fatal(err)
	}
	groups, sel, models := fitModels(tb, ds, sp)
	return ds, sp, groups, sel, models, s
}

// fitModels runs the grouping, metric-selection and fitting stages of a
// tune on the dataset.
func fitModels(tb testing.TB, ds *dataset.Dataset, sp *space.Space) ([][]int, []metrics.Selected, map[string]*pmnf.Model) {
	tb.Helper()
	groups := grouping.Groups(grouping.PairCVs(ds, sp), 4)
	if err := grouping.Validate(groups); err != nil {
		tb.Fatal(err)
	}
	pairs, err := metrics.PairPCCs(ds, sim.MetricNames())
	if err != nil {
		tb.Fatal(err)
	}
	sel, err := metrics.Select(ds, metrics.Combine(pairs, 4))
	if err != nil {
		tb.Fatal(err)
	}
	cols := make([][]float64, len(sel))
	for k, m := range sel {
		if cols[k], err = ds.MetricColumn(m.Name); err != nil {
			tb.Fatal(err)
		}
	}
	fits, err := pmnf.Fit(ds, groups, cols)
	if err != nil {
		tb.Fatal(err)
	}
	models := map[string]*pmnf.Model{}
	for k, m := range sel {
		models[m.Name] = fits[k]
	}
	return groups, sel, models
}

// build draws a pool from rng and scores it, as a tune does.
func build(ds *dataset.Dataset, sp *space.Space, groups [][]int, sel []metrics.Selected,
	models map[string]*pmnf.Model, rng *stats.Rand, cfg Config) (*Sampled, error) {
	pool, err := Draw(ds, sp, rng, cfg)
	if err != nil {
		return nil, err
	}
	return Score(pool, groups, sel, models, cfg)
}

// fromSettings builds a Sampled directly from explicit settings of sp.
func fromSettings(sp *space.Space, settings []space.Setting, groups [][]int) *Sampled {
	s := &Sampled{Settings: settings, Groups: groups, sp: sp}
	s.reindex()
	return s
}

func TestBuildRespectsRatio(t *testing.T) {
	ds, sp, groups, sel, models, _ := pipelineTo(t)
	cfg := Config{Ratio: 0.1, PoolSize: 1000}
	rng := stats.NewRand(5)
	s, err := build(ds, sp, groups, sel, models, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	poolWithDS := 1000 + len(ds.Samples)
	if len(s.Settings) < poolWithDS/10-5 || len(s.Settings) > poolWithDS/10+20 {
		t.Fatalf("kept %d settings of ~%d pool at 10%%", len(s.Settings), poolWithDS)
	}
	// All kept settings are explicitly valid.
	for _, set := range s.Settings {
		if err := sp.Validate(set); err != nil {
			t.Fatalf("sampled invalid setting: %v", err)
		}
	}
}

// TestSamplingImprovesQuality is the stage's raison d'être: the mean measured
// time of the kept fraction must beat the mean of a random sample.
func TestSamplingImprovesQuality(t *testing.T) {
	ds, sp, groups, sel, models, simulator := pipelineTo(t)
	rng := stats.NewRand(6)
	s, err := build(ds, sp, groups, sel, models, rng, Config{Ratio: 0.1, PoolSize: 600})
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(sets []space.Setting) (float64, int) {
		total, n := 0.0, 0
		for _, set := range sets {
			if ms, err := simulator.Measure(set); err == nil {
				total += ms
				n++
			}
		}
		return total / float64(n), n
	}
	keptMean, kn := meanOf(s.Settings)
	var randomSets []space.Setting
	for i := 0; i < len(s.Settings); i++ {
		randomSets = append(randomSets, sp.Random(rng))
	}
	randMean, rn := meanOf(randomSets)
	if kn == 0 || rn == 0 {
		t.Fatal("no measurable settings")
	}
	if keptMean >= randMean {
		t.Fatalf("sampled settings (mean %.3f ms over %d) no better than random (mean %.3f ms over %d)",
			keptMean, kn, randMean, rn)
	}
}

func TestBuildArgumentValidation(t *testing.T) {
	ds, sp, groups, sel, models, _ := pipelineTo(t)
	pool, err := Draw(ds, sp, stats.NewRand(7), Config{PoolSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Score(pool, groups, sel, models, Config{Ratio: 0}); err == nil {
		t.Fatal("ratio 0 should error")
	}
	if _, err := Score(pool, groups, sel, models, Config{Ratio: 1.5}); err == nil {
		t.Fatal("ratio >1 should error")
	}
	if _, err := Score(pool, groups, nil, models, Config{Ratio: 0.1}); err == nil {
		t.Fatal("no selected metrics should error")
	}
	if _, err := Score(pool, groups, sel, map[string]*pmnf.Model{}, Config{Ratio: 0.1}); err == nil {
		t.Fatal("missing model should error")
	}
	if _, err := Score(pool, groups[1:], sel, models, Config{Ratio: 0.1}); err == nil {
		t.Fatal("models fitted over other groups should error")
	}
	short := &dataset.Dataset{Samples: []dataset.Sample{{Setting: space.Setting{1}}}}
	if _, err := Draw(short, sp, stats.NewRand(7), Config{}); err == nil {
		t.Fatal("a dataset sample of the wrong arity should error")
	}
}

func TestReindexAndApply(t *testing.T) {
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	a := sp.Default()
	b := sp.Default()
	b[space.TBX], b[space.TBY] = 128, 2
	c := sp.Default()
	c[space.TBX], c[space.TBY] = 32, 8
	groups := [][]int{{space.TBX, space.TBY}, {space.UseShared}}
	s := fromSettings(sp, []space.Setting{a, b, c, a /*dup*/}, groups)

	if len(s.Values[0]) != 3 {
		t.Fatalf("group 0 has %d tuples, want 3 (dedup)", len(s.Values[0]))
	}
	if len(s.Values[1]) != 1 {
		t.Fatalf("group 1 has %d tuples, want 1", len(s.Values[1]))
	}
	// Tuples sorted ascending lexicographically.
	for i := 1; i < len(s.Values[0]); i++ {
		if slices.Compare(s.Values[0][i-1], s.Values[0][i]) >= 0 {
			t.Fatal("tuples not sorted")
		}
	}
	// Apply writes the tuple into a setting.
	target := sp.Default()
	if err := s.Apply(target, 0, 1); err != nil {
		t.Fatal(err)
	}
	if target[space.TBX] != s.Values[0][1][0] || target[space.TBY] != s.Values[0][1][1] {
		t.Fatal("Apply wrote wrong values")
	}
	if err := s.Apply(target, 0, 99); err == nil {
		t.Fatal("out-of-range tuple should error")
	}
	if err := s.Apply(target, 5, 0); err == nil {
		t.Fatal("out-of-range group should error")
	}
}

// referenceReindex is reindex as it was before tuples were numbered from
// their value codes: each group tuple keyed by its values rendered as
// decimal text, in one map per group, the distinct tuples then sorted.
func referenceReindex(settings []space.Setting, groups [][]int) [][][]int {
	values := make([][][]int, len(groups))
	var key []byte
	for gi, g := range groups {
		seen := map[string][]int{}
		for _, set := range settings {
			key = key[:0]
			for _, p := range g {
				key = strconv.AppendInt(key, int64(set[p]), 10)
				key = append(key, ',')
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			tuple := make([]int, len(g))
			for i, p := range g {
				tuple[i] = set[p]
			}
			seen[string(key)] = tuple
		}
		tuples := make([][]int, 0, len(seen))
		for _, t := range seen {
			tuples = append(tuples, t)
		}
		sort.Slice(tuples, func(a, b int) bool { return slices.Compare(tuples[a], tuples[b]) < 0 })
		values[gi] = tuples
	}
	return values
}

// TestReindexMatchesKeyedReference checks reindex against referenceReindex
// on random settings of every Table III stencil's space and of two custom
// spaces, under random groupings, at three seeds, and again after Include
// adds warm-start settings. Some settings repeat, and some hold a value
// outside its parameter's Values. One grouping per seed puts every
// parameter in one group; in the wide custom space (16^17 tuples) its
// numbers would not fit in 64 bits. Those two cases sort their tuples
// instead of numbering them.
func TestReindexMatchesKeyedReference(t *testing.T) {
	var spaces []*space.Space
	for _, st := range stencil.Suite() {
		sp, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, sp)
	}
	custom, err := space.NewCustom([]space.Param{
		{Name: "a", Values: []int{1, 2, 4, 8, 16}},
		{Name: "b", Values: []int{1, 3, 5, 7}, Biased: true},
		{Name: "c", Values: []int{space.Off, space.On}},
	}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wideParams []space.Param
	for p := range 17 {
		wideParams = append(wideParams, space.Param{Name: fmt.Sprint("w", p), Values: []int{
			1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}})
	}
	wide, err := space.NewCustom(wideParams, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	spaces = append(spaces, custom, wide)
	equal := func(a, b [][][]int) bool {
		return slices.EqualFunc(a, b, func(x, y [][]int) bool { return slices.EqualFunc(x, y, slices.Equal[[]int]) })
	}
	for _, sp := range spaces {
		for _, seed := range []int64{1, 2, 3} {
			rng := stats.NewRand(seed)
			for trial := range 12 {
				groups := [][]int{}
				if trial == 0 {
					groups = append(groups, rng.Perm(sp.N()))
				} else {
					perm := rng.Perm(sp.N())
					for len(perm) > 0 {
						k := min(1+rng.Intn(5), len(perm))
						groups, perm = append(groups, perm[:k]), perm[k:]
					}
				}
				settings := make([]space.Setting, 1+rng.Intn(500))
				for i := range settings {
					switch {
					case i > 0 && rng.Intn(4) == 0:
						settings[i] = settings[rng.Intn(i)].Clone()
					default:
						settings[i] = sp.Random(rng)
					}
				}
				if trial%3 == 1 {
					odd := settings[rng.Intn(len(settings))]
					odd[rng.Intn(sp.N())] = 1<<20 + rng.Intn(3)
				}
				where := fmt.Sprintf("space of %d parameters, seed %d, trial %d", sp.N(), seed, trial)
				got := fromSettings(sp, settings, groups)
				if !equal(got.Values, referenceReindex(settings, groups)) {
					t.Fatalf("%s: Values differ from the keyed reference", where)
				}
				warm := []space.Setting{sp.Random(rng), settings[0].Clone(), sp.Default()}
				got.Include(warm)
				if !equal(got.Values, referenceReindex(got.Settings, groups)) {
					t.Fatalf("%s: Values after Include differ from the keyed reference", where)
				}
			}
		}
	}
}

func TestBest(t *testing.T) {
	sp, _ := space.New(stencil.J3D7PT())
	s := fromSettings(sp, nil, [][]int{{0}})
	if _, err := s.Best(); err == nil {
		t.Fatal("empty sampled space should error")
	}
	s = fromSettings(sp, []space.Setting{sp.Default()}, [][]int{{0}})
	b, err := s.Best()
	if err != nil || !b.Equal(sp.Default()) {
		t.Fatalf("Best = %v, %v", b, err)
	}
	// Best must be a copy.
	b[space.TBX] = 1
	if s.Settings[0][space.TBX] == 1 {
		t.Fatal("Best aliases stored setting")
	}
}

// TestIncludeAddsMissingSettings: Include must append exactly the settings
// whose keys are absent, clone them, and re-index so every included setting
// becomes reachable through the gene ranges.
func TestIncludeAddsMissingSettings(t *testing.T) {
	ds, sp, groups, sel, models, _ := pipelineTo(t)
	rng := stats.NewRand(5)
	s, err := build(ds, sp, groups, sel, models, rng, Config{Ratio: 0.1, PoolSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	existing := s.Settings[0].Clone()
	fresh := sp.Default()
	// Nudge the default until its key is absent from the sampled set.
	present := map[string]bool{}
	for _, set := range s.Settings {
		present[set.Key()] = true
	}
	r := stats.NewRand(99)
	for present[fresh.Key()] {
		fresh = sp.Random(r)
	}

	before := len(s.Settings)
	added := s.Include([]space.Setting{existing, fresh, fresh.Clone()})
	if added != 1 {
		t.Fatalf("Include added %d, want 1 (dup of existing and self-dup skipped)", added)
	}
	if len(s.Settings) != before+1 {
		t.Fatalf("settings grew by %d", len(s.Settings)-before)
	}
	// The included setting is cloned, not aliased.
	s.Settings[len(s.Settings)-1][0]++
	if s.Settings[len(s.Settings)-1][0] == fresh[0] {
		t.Fatal("Include aliased the caller's setting")
	}
	s.Settings[len(s.Settings)-1][0]--

	// Re-indexing makes every group tuple of the included setting reachable:
	// TupleIndex finds it and Apply round-trips it.
	for gi := range s.Groups {
		idx := s.TupleIndex(fresh, gi)
		if idx < 0 {
			t.Fatalf("group %d tuple of included setting not indexed", gi)
		}
		probe := sp.Default()
		if err := s.Apply(probe, gi, idx); err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Groups[gi] {
			if probe[p] != fresh[p] {
				t.Fatalf("group %d round-trip mismatch at param %d", gi, p)
			}
		}
	}

	if s.Include(nil) != 0 {
		t.Fatal("Include(nil) must be a no-op")
	}
}

// TestTupleIndexMissAndBounds: absent tuples and out-of-range groups answer
// -1, never panic.
func TestTupleIndexMissAndBounds(t *testing.T) {
	ds, sp, groups, sel, models, _ := pipelineTo(t)
	rng := stats.NewRand(5)
	s, err := build(ds, sp, groups, sel, models, rng, Config{Ratio: 0.1, PoolSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TupleIndex(sp.Default(), -1); got != -1 {
		t.Fatalf("gi=-1 -> %d", got)
	}
	if got := s.TupleIndex(sp.Default(), len(s.Groups)); got != -1 {
		t.Fatalf("gi out of range -> %d", got)
	}
	if got := s.TupleIndex(space.Setting{1}, 0); got != -1 {
		t.Fatalf("short setting -> %d", got)
	}
	// A tuple no sampled setting carries: values outside any real range.
	weird := sp.Default()
	for i := range weird {
		weird[i] = 1 << 20
	}
	for gi := range s.Groups {
		if got := s.TupleIndex(weird, gi); got != -1 {
			t.Fatalf("absent tuple indexed at group %d: %d", gi, got)
		}
	}
}

// freshPool is the candidate pool as it was drawn before the pool was
// coded: the dataset settings, then a fresh Space.Random per draw, each
// kept unless an earlier candidate has its key, drawn from a generator
// seeded with seed.
func freshPool(ds *dataset.Dataset, sp *space.Space, seed int64, cfg Config) []space.Setting {
	want := make([]space.Setting, 0, len(ds.Samples)+cfg.PoolSize)
	seen := map[string]bool{}
	for _, s := range ds.Samples {
		if !seen[s.Setting.Key()] {
			seen[s.Setting.Key()] = true
			want = append(want, s.Setting)
		}
	}
	rng := stats.NewRand(seed)
	for tries := 0; len(want) < cap(want) && tries < 50*cfg.PoolSize; tries++ {
		s := sp.Random(rng)
		if !seen[s.Key()] {
			seen[s.Key()] = true
			want = append(want, s)
		}
	}
	return want
}

// TestCandidatesMatchFreshDraws checks the coded pool, drawn into one
// reused setting and deduplicated by its codes, against pools drawn with
// a fresh Space.Random per candidate and deduplicated by key: decoding
// must give the same candidates in the same order. Real pools hold almost no
// repeats, so two cases make them: a dataset of the pool's own first
// draws, each twice, and a space of 24 settings, whose pool fills with
// repeats until the try budget ends. A fourth adds dataset settings with
// values outside their parameters' Param.Values.
func TestCandidatesMatchFreshDraws(t *testing.T) {
	ds, sp, _, _, _, _ := pipelineTo(t)
	foreign := &dataset.Dataset{Samples: slices.Clone(ds.Samples)}
	for i, v := range []int{3, 5, 3} {
		s := ds.Samples[i].Setting.Clone()
		s[space.TBX], s[space.UFY] = v, 6
		foreign.Samples = append(foreign.Samples, dataset.Sample{Setting: s})
	}
	echo := &dataset.Dataset{}
	rng := stats.NewRand(9)
	for range 40 {
		s := sp.Random(rng)
		echo.Samples = append(echo.Samples, dataset.Sample{Setting: s}, dataset.Sample{Setting: s.Clone()})
	}
	tiny, err := space.NewCustom([]space.Param{
		{Name: "a", Values: []int{1, 2, 4}},
		{Name: "b", Values: []int{1, 2, 4, 8}, Biased: true},
		{Name: "c", Values: []int{space.Off, space.On}},
	}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tinyDS := &dataset.Dataset{Samples: []dataset.Sample{{Setting: tiny.Default()}}}
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
		sp   *space.Space
	}{{"helmholtz", ds, sp}, {"echo", echo, sp}, {"tiny", tinyDS, tiny}, {"foreign", foreign, sp}} {
		cfg := Config{Ratio: 0.1, PoolSize: 500}
		got, err := Draw(tc.ds, tc.sp, stats.NewRand(9), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := freshPool(tc.ds, tc.sp, 9, cfg)
		if got.Len() != len(want) {
			t.Fatalf("%s: pool of %d, fresh draws give %d", tc.name, got.Len(), len(want))
		}
		s := make(space.Setting, tc.sp.N())
		for i := range want {
			if got.Decode(i, s); !s.Equal(want[i]) {
				t.Fatalf("%s: candidate %d is %v, fresh draws give %v", tc.name, i, s, want[i])
			}
		}
	}
}

// referenceBuild is Draw and Score over the candidate pool as it was
// before the pool was coded: freshPool's settings, each scored with
// Model.Predict (which the settings-based pmnf.Pool matched bit for bit),
// ranked by sort.SliceStable, the best fraction kept and re-indexed by
// referenceReindex.
func referenceBuild(t *testing.T, ds *dataset.Dataset, sp *space.Space, groups [][]int,
	sel []metrics.Selected, models map[string]*pmnf.Model, seed int64, cfg Config) *Sampled {
	t.Helper()
	pool := freshPool(ds, sp, seed, cfg)
	score := make([]float64, len(pool))
	preds := make([]float64, len(pool))
	for _, m := range sel {
		for i, s := range pool {
			preds[i] = models[m.Name].Predict(s)
		}
		mu, _ := stats.Mean(preds)
		sd, _ := stats.StdDev(preds)
		if sd == 0 {
			continue
		}
		for i := range pool {
			score[i] += m.TimePCC * (preds[i] - mu) / sd
		}
	}
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] < score[order[b]] })
	keep := min(max(int(math.Ceil(cfg.Ratio*float64(len(pool)))), 1), len(pool))
	kept := make([]space.Setting, keep)
	for k := range kept {
		kept[k] = pool[order[k]].Clone()
	}
	return &Sampled{Settings: kept, Groups: groups, Values: referenceReindex(kept, groups)}
}

// TestBuildMatchesSettingPool runs Draw and Score against referenceBuild on the
// same seeds, and with one metric's weight NaN, which makes every score
// NaN and sends the ranking through rank: the kept settings, their order
// and the re-indexed Values must be equal.
func TestBuildMatchesSettingPool(t *testing.T) {
	ds, sp, groups, sel, models, _ := pipelineTo(t)
	nan := slices.Clone(sel)
	nan[len(nan)-1].TimePCC = math.NaN()
	for _, selected := range [][]metrics.Selected{sel, nan} {
		for _, seed := range []int64{1, 2} {
			cfg := Config{Ratio: 0.1, PoolSize: 700}
			got, err := build(ds, sp, groups, selected, models, stats.NewRand(seed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceBuild(t, ds, sp, groups, selected, models, seed, cfg)
			where := fmt.Sprintf("NaN weight %v, seed %d", math.IsNaN(selected[len(selected)-1].TimePCC), seed)
			if !slices.EqualFunc(got.Settings, want.Settings, space.Setting.Equal) {
				t.Fatalf("%s: kept %d settings, the reference %d, or in another order", where, len(got.Settings), len(want.Settings))
			}
			if !slices.EqualFunc(got.Values, want.Values, func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }) {
				t.Fatalf("%s: Values differ from the reference", where)
			}
		}
	}
}

// TestRankMatchesSliceStable pins rank to the permutation sort.SliceStable
// gave the pool, and smallest's keep entries to its prefix for keep 1, 2,
// 20, 416, n-1 and n, over scores with many ties, ±0, ±Inf and NaN, at
// sizes on both sides of the 20-element insertion-sort blocks. Odd
// repetitions draw no NaN, so smallest selects instead of falling back to
// rank.
func TestRankMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []float64{-1, 0, math.Copysign(0, -1), 0.5, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, n := range []int{1, 2, 7, 20, 21, 64, 333, 417, 4160} {
		for rep := 0; rep < 20; rep++ {
			pick := values
			if rep%2 == 1 {
				pick = values[:len(values)-1]
			}
			score := make([]float64, n)
			for i := range score {
				if rng.Intn(2) == 0 {
					score[i] = pick[rng.Intn(len(pick))]
				} else {
					score[i] = rng.NormFloat64()
				}
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return score[want[a]] < score[want[b]] })
			for i, r := range rank(score) {
				if r.index != want[i] {
					t.Fatalf("n=%d rep %d: rank position %d holds %d, sort.SliceStable %d", n, rep, i, r.index, want[i])
				}
			}
			for _, keep := range []int{1, 2, 20, 416, n - 1, n} {
				if keep < 1 || keep > n {
					continue
				}
				got := smallest(score, keep)
				if len(got) != keep {
					t.Fatalf("n=%d rep %d: smallest(%d) kept %d", n, rep, keep, len(got))
				}
				for i, r := range got {
					if r.index != want[i] || math.Float64bits(r.score) != math.Float64bits(score[r.index]) {
						t.Fatalf("n=%d rep %d: smallest(%d) position %d holds %d (score %v), sort.SliceStable %d",
							n, rep, keep, i, r.index, r.score, want[i])
					}
				}
			}
		}
	}
}

// TestPoolScoringMatchesPredict scores the real candidate pools of tunes of
// every Table III stencil on the A100 and the V100 at seeds 1 and 2 and
// checks every candidate's prediction against Model.Predict, bit for bit.
// One extra candidate holds a value Param.Index cannot place, which takes
// a code after its parameter's own.
func TestPoolScoringMatchesPredict(t *testing.T) {
	for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
		for _, st := range stencil.Suite() {
			for seed := int64(1); seed <= 2; seed++ {
				sp, err := space.New(st)
				if err != nil {
					t.Fatal(err)
				}
				rng := stats.NewRand(seed)
				ds, err := dataset.Collect(sim.New(sp, arch), rng, 64)
				if err != nil {
					t.Fatal(err)
				}
				groups, sel, models := fitModels(t, ds, sp)
				cands, err := Draw(ds, sp, rng, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				settings := make([]space.Setting, cands.Len())
				for i := range settings {
					settings[i] = make(space.Setting, sp.N())
					cands.Decode(i, settings[i])
				}
				odd := settings[0].Clone()
				odd[space.TBX] = 3
				withOdd := sp.NewCoded(len(settings) + 1)
				for _, s := range append(settings, odd) {
					if _, err := withOdd.Add(s); err != nil {
						t.Fatal(err)
					}
				}
				for _, tc := range []struct {
					pool     *space.Coded
					settings []space.Setting
				}{{cands, settings}, {withOdd, append(settings, odd)}} {
					indexed := pmnf.NewPool(tc.pool, groups)
					preds := make([]float64, len(tc.settings))
					for _, m := range sel {
						model := models[m.Name]
						indexed.Predict(model, preds)
						for i, s := range tc.settings {
							if want := model.Predict(s); math.Float64bits(preds[i]) != math.Float64bits(want) {
								t.Fatalf("%s/%s seed %d, %s, candidate %d of %d: pool %v, Predict %v",
									st.Name, arch.Name, seed, m.Name, i, len(tc.settings), preds[i], want)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkBuild draws and scores the helmholtz/a100 fixture's pool at the
// default ratio and pool size.
func BenchmarkBuild(b *testing.B) {
	ds, sp, groups, sel, models, _ := pipelineTo(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(ds, sp, groups, sel, models, stats.NewRand(5), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
