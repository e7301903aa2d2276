package harness

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baselines/cstuner"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
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
	m := engine.New(fx.Sim)

	set := fx.Space.Default()
	ms, err := m.Measure(set)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := engine.CompileS + engine.Reps*ms/1000
	if got := m.Stats().SpentS; math.Abs(got-wantCost) > 1e-12 {
		t.Fatalf("SpentS = %v, want %v", got, wantCost)
	}
	if m.Stats().Evaluations != 1 {
		t.Fatalf("Evals = %d", m.Stats().Evaluations)
	}

	// Invalid setting: CheckS charged, no eval counted.
	bad := set.Clone()
	bad[space.SD] = 3
	if _, err := m.Measure(bad); err == nil {
		t.Fatal("invalid setting should error")
	}
	if got := m.Stats().SpentS; math.Abs(got-wantCost-engine.CheckS) > 1e-12 {
		t.Fatalf("SpentS after reject = %v", got)
	}
	if m.Stats().Evaluations != 1 {
		t.Fatal("reject counted as eval")
	}

	best, bms, ok := m.Best()
	if !ok || bms != ms || !best.Equal(set) {
		t.Fatalf("Best = %v/%v/%v", best, bms, ok)
	}
}

func TestMeterBudget(t *testing.T) {
	fx := fixture(t)
	// Each measurement costs a little over CompileS: the first leaves
	// budget, the second spends it.
	m := engine.New(fx.Sim, engine.WithBudget(2*engine.CompileS))
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
		t.Fatalf("budget (%v spent of %v) should be exhausted", m.Stats().SpentS, 2*engine.CompileS)
	}
	// A fresh setting is refused once the budget is spent...
	fresh := set.Clone()
	fresh[space.TBX] = 16
	if _, err := m.Measure(fresh); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	// ...but re-probing an already-measured setting is a free cache hit —
	// real tuners never recompile a variant they already timed.
	spent := m.Stats().SpentS
	if ms, err := m.Measure(set); err != nil || ms <= 0 {
		t.Fatalf("cached re-probe = %v/%v", ms, err)
	}
	if m.Stats().SpentS != spent {
		t.Fatal("cache hit must not consume budget")
	}
	if hits := m.Stats().CacheHits; hits != 1 {
		t.Fatalf("CacheHits = %d, want 1", hits)
	}
}

func TestMeterTrajectoryQueries(t *testing.T) {
	fx := fixture(t)
	m := engine.New(fx.Sim)
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
	mid := (traj[1].CostS + traj[2].CostS) / 2
	if v, ok := m.BestAtCost(mid); !ok || v != traj[1].BestMS {
		t.Fatalf("BestAtCost(%v) = %v/%v", mid, v, ok)
	}
	if _, ok := m.BestAtCost(traj[0].CostS / 2); ok {
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

// TestCampaignTunerLooksUpMethods: a campaign runs the Methods() tuner of
// its name, so csTuner campaigns carry core.DefaultConfig()'s island GA.
func TestCampaignTunerLooksUpMethods(t *testing.T) {
	for _, m := range Methods() {
		got, err := CampaignTuner(m.Name())
		if err != nil || got.Name() != m.Name() || !reflect.DeepEqual(got, m) {
			t.Fatalf("CampaignTuner(%q) = %+v, %v; want %+v", m.Name(), got, err, m)
		}
	}
	ct, _ := CampaignTuner("cstuner")
	if ga := ct.(*cstuner.Tuner).Cfg.GA; !reflect.DeepEqual(ga, core.DefaultConfig().GA) {
		t.Fatalf("cstuner campaign GA %+v, want %+v", ga, core.DefaultConfig().GA)
	}
	if _, err := CampaignTuner("banana"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// rejectAll is a campaign objective that rejects every setting.
type rejectAll struct{ sim.Objective }

func (rejectAll) Measure(space.Setting) (float64, error) { return 0, errors.New("rejected") }

// TestCampaignMeasuredNothing: a campaign whose engine measured nothing
// fails for every method, with no result and the cause its run gives.
func TestCampaignMeasuredNothing(t *testing.T) {
	fx := fixture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		wrap func(sim.Objective) sim.Objective
		want error
	}{
		{"rejects-all", context.Background(), func(obj sim.Objective) sim.Objective { return rejectAll{obj} }, ErrMeasuredNothing},
		{"cancelled", cancelled, nil, context.Canceled},
	}
	for _, m := range Methods() {
		for _, tc := range cases {
			t.Run(m.Name()+"/"+tc.name, func(t *testing.T) {
				cfg := CampaignConfig{Method: m.Name(), BudgetS: 20, Seed: 1, Wrap: tc.wrap}
				res, err := RunCampaign(tc.ctx, fx, cfg)
				if res != nil || !errors.Is(err, tc.want) {
					t.Fatalf("RunCampaign = %+v, %v; want no result and %v", res, err, tc.want)
				}
			})
		}
	}
}
