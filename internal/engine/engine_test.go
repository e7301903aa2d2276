package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// fakeObj is a deterministic objective double: time = TBx + TBy/100, with
// TBx == 999 marking an invalid setting. It counts inner calls per key.
type fakeObj struct {
	sp *space.Space

	mu    sync.Mutex
	calls map[string]int
	// next, when non-nil, overrides the next Measure outcome once.
	next error
}

var errFakeInvalid = errors.New("fake: invalid setting")

func newFake(t testing.TB) *fakeObj {
	t.Helper()
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	return &fakeObj{sp: sp, calls: map[string]int{}}
}

func (f *fakeObj) Space() *space.Space { return f.sp }

func (f *fakeObj) Measure(s space.Setting) (float64, error) {
	f.mu.Lock()
	f.calls[s.Key()]++
	next := f.next
	f.next = nil
	f.mu.Unlock()
	if next != nil {
		return 0, next
	}
	if s[space.TBX] == 999 {
		return 0, errFakeInvalid
	}
	return float64(s[space.TBX]) + float64(s[space.TBY])/100, nil
}

func (f *fakeObj) callCount(s space.Setting) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[s.Key()]
}

// variant returns the default setting with TBx/TBy overridden.
func variant(sp *space.Space, tbx, tby int) space.Setting {
	s := sp.Default()
	s[space.TBX] = tbx
	s[space.TBY] = tby
	return s
}

func TestMeasureMemoizes(t *testing.T) {
	f := newFake(t)
	e := New(f)
	s := variant(f.sp, 64, 4)
	ms1, err := e.Measure(s)
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := e.Measure(s)
	if err != nil || ms2 != ms1 {
		t.Fatalf("cached re-probe = %v/%v, want %v", ms2, err, ms1)
	}
	if n := f.callCount(s); n != 1 {
		t.Fatalf("inner measured %d times, want 1", n)
	}
	st := e.Stats()
	if st.Evaluations != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidErrorsAreCached(t *testing.T) {
	f := newFake(t)
	e := New(f)
	bad := variant(f.sp, 999, 1)
	_, err1 := e.Measure(bad)
	_, err2 := e.Measure(bad)
	if !errors.Is(err1, errFakeInvalid) || !errors.Is(err2, errFakeInvalid) {
		t.Fatalf("errors = %v / %v", err1, err2)
	}
	if n := f.callCount(bad); n != 1 {
		t.Fatalf("invalid setting re-measured: %d inner calls", n)
	}
	st := e.Stats()
	if st.Invalid != 1 || st.CacheHits != 1 || st.Evaluations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SpentS != CheckS {
		t.Fatalf("invalid setting charged %v, want one CheckS", st.SpentS)
	}
}

func TestErrBudgetIsNotCached(t *testing.T) {
	f := newFake(t)
	e := New(f)
	s := variant(f.sp, 32, 2)
	f.next = ErrBudget // inner (stacked) objective out of budget once
	if _, err := e.Measure(s); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v", err)
	}
	ms, err := e.Measure(s)
	if err != nil || ms <= 0 {
		t.Fatalf("transient ErrBudget was cached: %v/%v", ms, err)
	}
	if n := f.callCount(s); n != 2 {
		t.Fatalf("inner calls = %d, want 2", n)
	}
}

func TestBudgetEnforcement(t *testing.T) {
	f := newFake(t)
	// Each measurement costs a little over CompileS: the first leaves
	// budget, the second spends it.
	e := New(f, WithBudget(2*CompileS))
	a := variant(f.sp, 64, 4)
	if _, err := e.Measure(a); err != nil {
		t.Fatal(err)
	}
	if e.Exhausted() {
		t.Fatal("budget should survive one eval")
	}
	if _, err := e.Measure(variant(f.sp, 32, 2)); err != nil {
		t.Fatal(err)
	}
	if !e.Exhausted() {
		t.Fatalf("spent %v of %v, should be exhausted", e.SpentS(), 2*CompileS)
	}
	if _, err := e.Measure(variant(f.sp, 16, 1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("fresh setting after exhaustion: %v", err)
	}
	if ms, err := e.Measure(a); err != nil || ms <= 0 {
		t.Fatalf("cached setting must stay free after exhaustion: %v/%v", ms, err)
	}
	st := e.Stats()
	if st.BudgetTrips != 1 {
		t.Fatalf("BudgetTrips = %d, want 1", st.BudgetTrips)
	}
}

func TestRunIsUnmeteredAndPrewarmsCache(t *testing.T) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	e := New(s, WithBudget(5))
	if !e.CanCollect() {
		t.Fatal("simulator-backed engine must collect")
	}
	set := sp.Default()
	res, err := e.Run(set)
	if err != nil || res == nil || res.TimeMS <= 0 {
		t.Fatalf("Run = %v/%v", res, err)
	}
	if st := e.Stats(); st.SpentS != 0 || st.Evaluations != 0 {
		t.Fatalf("offline Run was metered: %+v", st)
	}
	// Run pre-warms the Measure cache: a cache hit, no budget charge, same
	// time.
	ms, err := e.Measure(set)
	if err != nil || ms != res.TimeMS {
		t.Fatalf("Measure after Run = %v/%v, want %v", ms, err, res.TimeMS)
	}
	if st := e.Stats(); st.SpentS != 0 || st.CacheHits != 1 {
		t.Fatalf("pre-warmed Measure: %+v, want one free cache hit", st)
	}
}

func TestRunWithoutRunner(t *testing.T) {
	f := newFake(t)
	e := New(f)
	if e.CanCollect() {
		t.Fatal("fake objective cannot collect")
	}
	if _, err := e.Run(f.sp.Default()); !errors.Is(err, ErrNoRunner) {
		t.Fatalf("err = %v", err)
	}
}

func TestSpansAggregate(t *testing.T) {
	f := newFake(t)
	e := New(f)
	e.Time("grouping")()
	e.Time("search")()
	e.Time("search")()
	spans := e.Spans()
	if len(spans) != 2 || spans[0].Name != "grouping" || spans[1].Name != "search" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Count != 2 {
		t.Fatalf("search span count = %d", spans[1].Count)
	}
}

func TestArchitectureForwarding(t *testing.T) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	if arch := New(s).Architecture(); arch == nil || arch.Name != "A100" {
		t.Fatalf("arch = %v", arch)
	}
	if New(newFake(t)).Architecture() != nil {
		t.Fatal("fake objective has no architecture")
	}
	if sim.ArchOf(New(s)) == nil {
		t.Fatal("ArchOf must see through the engine")
	}
}
