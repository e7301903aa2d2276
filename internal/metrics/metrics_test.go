package metrics

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	sp, err := space.New(stencil.Cheby())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ds, err := dataset.Collect(s, stats.NewRand(21), 64)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPairPCCs(t *testing.T) {
	ds := testDataset(t)
	names := sim.MetricNames()
	pairs, err := PairPCCs(ds, names)
	if err != nil {
		t.Fatal(err)
	}
	want := len(names) * (len(names) - 1) / 2
	if len(pairs) != want {
		t.Fatalf("pair count = %d, want %d", len(pairs), want)
	}
	for _, p := range pairs {
		if p.PCC < 0 || p.PCC > 1+1e-9 {
			t.Fatalf("|PCC| out of range: %v", p.PCC)
		}
	}
	if _, err := PairPCCs(ds, []string{"nope", "also_nope"}); err == nil {
		t.Fatal("unknown metric should error")
	}
}

func TestCombineCollections(t *testing.T) {
	ds := testDataset(t)
	names := sim.MetricNames()
	pairs, err := PairPCCs(ds, names)
	if err != nil {
		t.Fatal(err)
	}
	cols := Combine(pairs, 4)
	// Every metric appears exactly once.
	seen := map[string]int{}
	for _, c := range cols {
		if len(c) == 0 {
			t.Fatal("empty collection")
		}
		for _, m := range c {
			seen[m]++
		}
	}
	for _, n := range names {
		if seen[n] != 1 {
			t.Fatalf("metric %s appears %d times", n, seen[n])
		}
	}
	// There must be some aggregation: fewer collections than metrics.
	if len(cols) >= len(names) {
		t.Fatalf("no aggregation happened: %d collections for %d metrics", len(cols), len(names))
	}
}

func TestCombineSynthetic(t *testing.T) {
	// a-b strongly correlated, c uncorrelated; 1 collection allowed.
	pairs := []PairPCC{
		{A: "a", B: "b", PCC: 0.99},
		{A: "a", B: "c", PCC: 0.10},
		{A: "b", B: "c", PCC: 0.05},
	}
	cols := Combine(pairs, 1)
	// a-b opens the single allowed collection; the a-c bridge then merges
	// c into it (Algorithm 2 places no size cap on merges).
	if len(cols) != 1 || len(cols[0]) != 3 {
		t.Fatalf("collections = %v, want one collection of three", cols)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		for _, m := range c {
			seen[m] = true
		}
	}
	if !seen["a"] || !seen["b"] || !seen["c"] {
		t.Fatalf("lost a metric: %v", cols)
	}
}

func TestCombineDefaultCollections(t *testing.T) {
	pairs := []PairPCC{{A: "a", B: "b", PCC: 0.5}}
	cols := Combine(pairs, 0)
	if len(cols) != 1 || len(cols[0]) != 2 {
		t.Fatalf("Combine default = %v", cols)
	}
}

func TestSelectPicksTimeCorrelated(t *testing.T) {
	ds := testDataset(t)
	names := sim.MetricNames()
	pairs, err := PairPCCs(ds, names)
	if err != nil {
		t.Fatal(err)
	}
	cols := Combine(pairs, 4)
	sel, err := Select(ds, cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(cols) {
		t.Fatalf("selected %d metrics for %d collections", len(sel), len(cols))
	}
	// gpu__time_duration is time itself; whichever collection holds it must
	// select a metric with |PCC| == 1 against time — i.e. duration or a
	// perfect proxy.
	foundStrong := false
	for _, s := range sel {
		if math.Abs(s.TimePCC) > 0.95 {
			foundStrong = true
		}
		if math.Abs(s.TimePCC) > 1+1e-9 {
			t.Fatalf("impossible PCC %v", s.TimePCC)
		}
	}
	if !foundStrong {
		t.Fatal("no selected metric strongly tracks execution time")
	}
}

func TestSelectErrorsOnUnknownMetric(t *testing.T) {
	ds := testDataset(t)
	if _, err := Select(ds, [][]string{{"bogus"}}); err == nil {
		t.Fatal("unknown metric should error")
	}
}
