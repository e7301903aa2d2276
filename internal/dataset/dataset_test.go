package dataset

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func collect(t *testing.T, n int) (*Dataset, *sim.Simulator) {
	t.Helper()
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := Collect(s, stats.NewRand(3), n)
	if err != nil {
		t.Fatal(err)
	}
	return ds, s
}

func TestCollectBasics(t *testing.T) {
	ds, _ := collect(t, 32)
	if len(ds.Samples) != 32 {
		t.Fatalf("collected %d samples, want 32", len(ds.Samples))
	}
	if ds.Stencil != "j3d7pt" || ds.Arch != "A100" {
		t.Fatalf("labels = %s/%s", ds.Stencil, ds.Arch)
	}
	seen := map[string]bool{}
	for _, s := range ds.Samples {
		if s.TimeMS <= 0 {
			t.Fatal("non-positive time")
		}
		if len(s.Metrics) < 15 {
			t.Fatalf("sample has only %d metrics", len(s.Metrics))
		}
		k := s.Setting.Key()
		if seen[k] {
			t.Fatal("duplicate setting in dataset")
		}
		seen[k] = true
	}
}

// failRunner fails every setting it is given.
type failRunner struct{ sp *space.Space }

func (r failRunner) Space() *space.Space { return r.sp }

func (r failRunner) Run(space.Setting) (*sim.Result, error) {
	return nil, errors.New("fail: rejected")
}

func TestCollectRejectsBadArgs(t *testing.T) {
	_, s := collect(t, 4)
	if _, err := Collect(s, stats.NewRand(1), 0); err == nil {
		t.Fatal("n=0 should error")
	}
	// No setting runs, so the 1000·n try budget runs out.
	if _, err := Collect(failRunner{s.Space()}, stats.NewRand(1), 8); err == nil {
		t.Fatal("a runner that fails every setting should exhaust the try budget")
	}
}

func TestBestAndSorted(t *testing.T) {
	ds, _ := collect(t, 24)
	best := ds.Best()
	for _, s := range ds.Samples {
		if s.TimeMS < best.TimeMS {
			t.Fatal("Best is not minimal")
		}
	}
	times := ds.Times()
	if len(times) != 24 {
		t.Fatal("Times length")
	}
	slices.Sort(times)
	if times[0] != best.TimeMS {
		t.Fatal("the fastest time disagrees with Best")
	}
}

func TestColumns(t *testing.T) {
	ds, _ := collect(t, 16)
	col, err := ds.MetricColumn("sm__occupancy_achieved")
	if err != nil || len(col) != 16 {
		t.Fatalf("MetricColumn: %v len %d", err, len(col))
	}
	if _, err := ds.MetricColumn("no_such_metric"); err == nil {
		t.Fatal("missing metric should error")
	}
	times := ds.Times()
	for i := range times {
		if times[i] != ds.Samples[i].TimeMS {
			t.Fatal("Times mismatch")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, _ := collect(t, 8)
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stencil != ds.Stencil || got.Arch != ds.Arch || len(got.Samples) != len(ds.Samples) {
		t.Fatal("round trip changed header")
	}
	for i := range ds.Samples {
		if !got.Samples[i].Setting.Equal(ds.Samples[i].Setting) {
			t.Fatal("round trip changed a setting")
		}
		if got.Samples[i].TimeMS != ds.Samples[i].TimeMS {
			t.Fatal("round trip changed a time")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage should error")
	}
	if _, err := Load(bytes.NewBufferString(`{"stencil":"x","samples":[]}`)); err == nil {
		t.Fatal("empty dataset should error")
	}
}

// tinyRunner runs a 24-setting custom space and fails about a quarter of
// its settings, so draws repeat kept and failed settings often. It logs the
// key of every Run call to calls.
type tinyRunner struct {
	sp    *space.Space
	calls *[]string
}

func (r tinyRunner) Space() *space.Space { return r.sp }

func (r tinyRunner) Run(s space.Setting) (*sim.Result, error) {
	*r.calls = append(*r.calls, s.Key())
	if s.Hash()%4 == 0 {
		return nil, errors.New("tiny: rejected")
	}
	return &sim.Result{TimeMS: float64(1 + s.Hash()%100)}, nil
}

// TestCollectMatchesKeyedReference checks Collect against the loop it
// replaced, a fresh Space.Random per draw deduplicated by setting key, in
// a space small enough that most draws repeat a kept or a failed setting:
// the same Run calls in the same order, the same settings in the same
// order, or the same failure, and no two kept settings sharing memory.
// Collect runs each kept setting once, so the engine's Run never needs to
// serve a cached result.
func TestCollectMatchesKeyedReference(t *testing.T) {
	sp, err := space.NewCustom([]space.Param{
		{Name: "a", Values: []int{1, 2, 4}},
		{Name: "b", Values: []int{1, 2, 4, 8}, Biased: true},
		{Name: "c", Values: []int{space.Off, space.On}},
	}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 12, 30} {
		for seed := int64(1); seed <= 3; seed++ {
			var wantCalls, calls []string
			r := tinyRunner{sp, &wantCalls}
			var want []space.Setting
			rng := stats.NewRand(seed)
			seen := map[string]bool{}
			for tries := 0; len(want) < n && tries < 1000*n; tries++ {
				set := sp.Random(rng)
				if seen[set.Key()] {
					continue
				}
				if _, err := r.Run(set); err != nil {
					continue
				}
				seen[set.Key()] = true
				want = append(want, set)
			}
			ds, err := Collect(tinyRunner{sp, &calls}, stats.NewRand(seed), n)
			if !slices.Equal(calls, wantCalls) {
				t.Fatalf("n=%d seed %d: Collect ran %v, the reference %v", n, seed, calls, wantCalls)
			}
			if len(want) < n {
				if err == nil {
					t.Fatalf("n=%d seed %d: Collect kept %d samples, the reference found only %d", n, seed, len(ds.Samples), len(want))
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", n, seed, err)
			}
			runs := map[string]int{}
			for _, k := range calls {
				runs[k]++
			}
			for i, s := range ds.Samples {
				if runs[s.Setting.Key()] != 1 {
					t.Fatalf("n=%d seed %d: kept sample %d was run %d times", n, seed, i, runs[s.Setting.Key()])
				}
				if !s.Setting.Equal(want[i]) {
					t.Fatalf("n=%d seed %d: sample %d is %v, the reference %v", n, seed, i, s.Setting, want[i])
				}
				s.Setting[0] = -1 - i
			}
			for i, s := range ds.Samples {
				if s.Setting[0] != -1-i {
					t.Fatalf("n=%d seed %d: sample %d shares memory with a later one", n, seed, i)
				}
			}
		}
	}
}
