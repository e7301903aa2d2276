package harness

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/baselines/cstuner"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stencil"
)

func fixture(t testing.TB) *Fixture {
	t.Helper()
	fx, err := NewFixture(stencil.Helmholtz(), gpu.A100(), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestMeterAccounting(t *testing.T) {
	fx := fixture(t)
	cost := engine.CostModel{CompileS: 2, Reps: 4, CheckS: 0.5}
	m := engine.New(fx.Sim, engine.WithCost(cost))

	set := fx.Space.Default()
	ms, err := m.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := 2 + 4*ms/1000
	if got := m.SpentS(); math.Abs(got-wantCost) > 1e-12 {
		t.Fatalf("SpentS = %v, want %v", got, wantCost)
	}
	if m.Evals() != 1 {
		t.Fatalf("Evals = %d", m.Evals())
	}

	// Invalid setting: CheckS charged, no eval counted.
	bad := set.Clone()
	bad[space.SD] = 3
	if _, err := m.Measure(bad); err == nil {
		t.Fatal("invalid setting should error")
	}
	if got := m.SpentS(); math.Abs(got-wantCost-0.5) > 1e-12 {
		t.Fatalf("SpentS after reject = %v", got)
	}
	if m.Evals() != 1 {
		t.Fatal("reject counted as eval")
	}

	best, bms, ok := m.Best()
	if !ok || bms != ms || !best.Equal(set) {
		t.Fatalf("Best = %v/%v/%v", best, bms, ok)
	}
}

func TestMeterBudget(t *testing.T) {
	fx := fixture(t)
	m := engine.New(fx.Sim, engine.WithCost(engine.CostModel{CompileS: 10, Reps: 1}), engine.WithBudget(15))
	set := fx.Space.Default()
	if _, err := m.Measure(set); err != nil {
		t.Fatal(err)
	}
	if m.Exhausted() {
		t.Fatal("budget should survive one eval")
	}
	other := set.Clone()
	other[space.TBX] = 32
	if _, err := m.Measure(other); err != nil {
		t.Fatal(err)
	}
	if !m.Exhausted() {
		t.Fatalf("budget (%v spent of 15) should be exhausted", m.SpentS())
	}
	// A fresh setting is refused once the budget is spent...
	fresh := set.Clone()
	fresh[space.TBX] = 16
	if _, err := m.Measure(fresh); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	// ...but re-probing an already-measured setting is a free cache hit —
	// real tuners never recompile a variant they already timed.
	spent := m.SpentS()
	if ms, err := m.Measure(set); err != nil || ms <= 0 {
		t.Fatalf("cached re-probe = %v/%v", ms, err)
	}
	if m.SpentS() != spent {
		t.Fatal("cache hit must not consume budget")
	}
	if hits := m.Stats().CacheHits; hits != 1 {
		t.Fatalf("CacheHits = %d, want 1", hits)
	}
}

func TestMeterTrajectoryQueries(t *testing.T) {
	fx := fixture(t)
	m := engine.New(fx.Sim, engine.WithCost(engine.CostModel{CompileS: 1, Reps: 0}))
	sets := []space.Setting{fx.Space.Default()}
	a := fx.Space.Default()
	a[space.TBX] = 32
	b := fx.Space.Default()
	b[space.TBX] = 16
	sets = append(sets, a, b)
	for _, s := range sets {
		if _, err := m.Measure(s); err != nil {
			t.Fatal(err)
		}
	}
	traj := m.Trajectory()
	if len(traj) != 3 {
		t.Fatalf("trajectory has %d points", len(traj))
	}
	// Best-so-far must be non-increasing.
	for i := 1; i < len(traj); i++ {
		if traj[i].BestMS > traj[i-1].BestMS {
			t.Fatal("best-so-far increased")
		}
	}
	if v, ok := m.BestAtEvals(2); !ok || v != traj[1].BestMS {
		t.Fatalf("BestAtEvals(2) = %v/%v", v, ok)
	}
	if _, ok := m.BestAtEvals(0); ok {
		t.Fatal("BestAtEvals(0) should be empty")
	}
	if v, ok := m.BestAtCost(2.5); !ok || v != traj[1].BestMS {
		t.Fatalf("BestAtCost(2.5) = %v/%v", v, ok)
	}
	if _, ok := m.BestAtCost(0.5); ok {
		t.Fatal("BestAtCost before first point should be empty")
	}
}

func TestMeterForwardsArchitecture(t *testing.T) {
	fx := fixture(t)
	m := engine.New(fx.Sim)
	if m.Architecture() == nil || m.Architecture().Name != "A100" {
		t.Fatal("meter should forward the simulator's architecture")
	}
}

func TestIsoIterationCurveMonotone(t *testing.T) {
	fx := fixture(t)
	cs := cstuner.New()
	cs.Cfg.DatasetSize = 64
	cs.Cfg.Sampling.PoolSize = 512
	curve, err := IsoIterationCurve(context.Background(), cs, fx, 6, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 6 {
		t.Fatalf("curve length %d", len(curve))
	}
	for i, v := range curve {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("curve[%d] = %v", i, v)
		}
		if i > 0 && v > curve[i-1]+1e-12 {
			t.Fatal("iso-iteration curve must be non-increasing")
		}
	}
}

func TestIsoTimeRunRespectsBudget(t *testing.T) {
	fx := fixture(t)
	cs := cstuner.New()
	cs.Cfg.DatasetSize = 64
	cs.Cfg.Sampling.PoolSize = 512
	res, err := IsoTimeRun(context.Background(), cs, fx, 25, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMS <= 0 || res.Evals == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// ~25s at 1.5s compile → roughly 16 evaluations, certainly < 30.
	if res.Evals > 30 {
		t.Fatalf("budget ignored: %d evals", res.Evals)
	}
	if len(res.Curve) != 5 || len(res.Grid) != 5 {
		t.Fatalf("grid size wrong: %d/%d", len(res.Curve), len(res.Grid))
	}
	for i := 1; i < len(res.Curve); i++ {
		if !math.IsNaN(res.Curve[i]) && !math.IsNaN(res.Curve[i-1]) && res.Curve[i] > res.Curve[i-1]+1e-12 {
			t.Fatal("iso-time curve must be non-increasing")
		}
	}
}

func TestMeanOverSeeds(t *testing.T) {
	calls := 0
	out, err := MeanOverSeeds(3, 1, func(seed int64) ([]float64, error) {
		calls++
		return []float64{float64(calls), math.NaN()}, nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
	if out[0] != 2 { // mean of 1,2,3
		t.Fatalf("mean = %v", out[0])
	}
	if !math.IsNaN(out[1]) {
		t.Fatal("all-NaN element should stay NaN")
	}
	if _, err := MeanOverSeeds(1, 1, func(int64) ([]float64, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("errors must propagate")
	}
}

func TestCollectMotivationAndFigures(t *testing.T) {
	fx := fixture(t)
	ms, err := CollectMotivation(fx, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Times) != 300 || ms.BestMS <= 0 {
		t.Fatalf("sample: %d times best %v", len(ms.Times), ms.BestMS)
	}
	bins, err := Fig2Bins(ms)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range bins {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Fig2 bins sum to %v", sum)
	}
	// The paper's headline shape: the poor bin dominates the good bin.
	if bins[0] < bins[4] {
		t.Fatalf("expected poor-heavy distribution, got %v", bins)
	}

	pbins, mean, err := Fig3Bins(ms)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 || mean >= 1 {
		t.Fatalf("Fig3 mean disagreement = %v", mean)
	}
	sum = 0
	for _, v := range pbins {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Fig3 bins sum to %v", sum)
	}

	tops, err := Fig4TopN(ms, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if tops[0] != 1 {
		t.Fatalf("top-1 speedup = %v, want 1", tops[0])
	}
	if tops[1] < tops[2] {
		t.Fatal("top-n speedup must decrease with n")
	}
	if _, err := Fig4TopN(ms, []int{0}); err == nil {
		t.Fatal("top-0 should error")
	}
	if _, err := Fig4TopN(ms, []int{301}); err == nil {
		t.Fatal("top beyond sample should error")
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, stencil.J3D7PT()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TBx", "usePrefetching", "pow2", "100 million"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	buf.Reset()
	Table3(&buf)
	out = buf.String()
	for _, want := range []string{"j3d7pt", "rhs4center", "666"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func TestFig12OverheadSmall(t *testing.T) {
	o := QuickOptions()
	o.Stencils = []*stencil.Stencil{stencil.J3D7PT()}
	o.DatasetSize = 64
	o.BudgetS = 25
	var buf bytes.Buffer
	rows, err := Fig12(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Codegen <= 0 || r.Grouping <= 0 || r.Sampling <= 0 {
		t.Fatalf("missing overhead components: %+v", r)
	}
	if r.SearchS <= 0 {
		t.Fatal("no search time recorded")
	}
	// The paper's claim: pre-processing is a tiny fraction of search.
	if r.Ratio > 0.10 {
		t.Fatalf("pre-processing ratio %.3f implausibly high", r.Ratio)
	}
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 4 || ms[0].Name() != "cstuner" {
		t.Fatalf("Methods = %v", ms)
	}
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m.Name()] = true
	}
	for _, want := range []string{"cstuner", "garvey", "opentuner", "artemis"} {
		if !seen[want] {
			t.Fatalf("missing method %s", want)
		}
	}
}

func TestRankMethods(t *testing.T) {
	order := RankMethods(map[string]float64{"a": 3, "b": 1, "c": 2})
	if order[0] != "b" || order[1] != "c" || order[2] != "a" {
		t.Fatalf("RankMethods = %v", order)
	}
}
