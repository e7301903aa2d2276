package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/space"
	"repro/internal/stencil"
)

// flakyObj is a per-key programmable objective: it fails the first failN
// attempts at a key with failErr, then succeeds with time TBx.
type flakyObj struct {
	sp      *space.Space
	failN   int
	failErr error

	mu       sync.Mutex
	attempts map[string]int
	block    chan struct{} // when non-nil, Measure blocks on it
}

func newFlaky(t testing.TB, failN int, failErr error) *flakyObj {
	t.Helper()
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	return &flakyObj{sp: sp, failN: failN, failErr: failErr, attempts: map[string]int{}}
}

func (f *flakyObj) Space() *space.Space { return f.sp }

func (f *flakyObj) Measure(s space.Setting) (float64, error) {
	f.mu.Lock()
	f.attempts[s.Key()]++
	n := f.attempts[s.Key()]
	block := f.block
	f.mu.Unlock()
	if block != nil {
		<-block
	}
	if n <= f.failN {
		return 0, f.failErr
	}
	return float64(s[space.TBX]), nil
}

func (f *flakyObj) attemptsFor(s space.Setting) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[s.Key()]
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"plain error is permanent", errors.New("boom"), ClassPermanent},
		{"wrapped transient", Transient(errors.New("flaky")), ClassTransient},
		{"deeply wrapped transient", errors.Join(errors.New("ctx"), Transient(errors.New("flaky"))), ClassTransient},
		{"measurement timeout", ErrTimeout, ClassTransient},
		{"budget", ErrBudget, ClassBudget},
		{"context canceled", context.Canceled, ClassCanceled},
		{"context deadline", context.DeadlineExceeded, ClassCanceled},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if ClassTransient.String() != "transient" || ClassPermanent.String() != "permanent" {
		t.Fatal("Class.String names diverged")
	}
}

func TestTransientErrorIsRetriedAndResultCached(t *testing.T) {
	f := newFlaky(t, 2, Transient(errors.New("flaky timer")))
	e := New(f, WithCost(CostModel{CompileS: 1, Reps: 0}), WithRetry(RetryPolicy{MaxAttempts: 3, BackoffS: 0.25, Multiplier: 2, Jitter: 0}))
	s := variant(f.sp, 64, 1)
	ms, err := e.Measure(s)
	if err != nil || ms != 64 {
		t.Fatalf("Measure = %v/%v, want 64", ms, err)
	}
	if n := f.attemptsFor(s); n != 3 {
		t.Fatalf("inner attempts = %d, want 3", n)
	}
	st := e.Stats()
	if st.Transient != 2 || st.Retries != 2 || st.Evaluations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Backoff (0.25 + 0.5) plus one compile is charged to the virtual clock.
	if want := 0.25 + 0.5 + 1.0; math.Abs(st.SpentS-want) > 1e-12 {
		t.Fatalf("SpentS = %v, want %v", st.SpentS, want)
	}
	// The eventual success is cached like any other.
	if _, err := e.Measure(s); err != nil || e.Stats().CacheHits != 1 {
		t.Fatalf("retried success was not cached: %v, %+v", err, e.Stats())
	}
}

func TestTransientExhaustionIsNotCached(t *testing.T) {
	f := newFlaky(t, 3, Transient(errors.New("flaky")))
	e := New(f, WithRetry(RetryPolicy{MaxAttempts: 2, BackoffS: 0, Jitter: 0}), WithQuarantine(0))
	s := variant(f.sp, 32, 1)
	if _, err := e.Measure(s); Classify(err) != ClassTransient {
		t.Fatalf("exhausted retries returned %v", err)
	}
	// The next probe reaches the objective again (attempt 3 still fails,
	// attempt 4 succeeds).
	if ms, err := e.Measure(s); err != nil || ms != 32 {
		t.Fatalf("re-probe after exhaustion = %v/%v", ms, err)
	}
	st := e.Stats()
	if st.CacheHits != 0 || st.Transient != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPermanentErrorIsNeverRetried(t *testing.T) {
	f := newFake(t)
	e := New(f, WithRetry(RetryPolicy{MaxAttempts: 5, BackoffS: 1, Jitter: 0}))
	bad := variant(f.sp, 999, 1)
	if _, err := e.Measure(bad); !errors.Is(err, errFakeInvalid) {
		t.Fatalf("err = %v", err)
	}
	if n := f.callCount(bad); n != 1 {
		t.Fatalf("permanent error retried: %d inner calls", n)
	}
	if st := e.Stats(); st.Retries != 0 || st.SpentS != DefaultCostModel().CheckS {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQuarantineAfterRepeatedFailures(t *testing.T) {
	f := newFlaky(t, 1<<30, Transient(errors.New("always flaky")))
	e := New(f, WithRetry(RetryPolicy{MaxAttempts: 1}), WithQuarantine(2))
	s := variant(f.sp, 48, 1)
	for i := 0; i < 2; i++ {
		if _, err := e.Measure(s); Classify(err) != ClassTransient {
			t.Fatalf("episode %d: %v", i, err)
		}
	}
	// Every later probe is refused without touching the objective.
	for i := 0; i < 2; i++ {
		if _, err := e.MeasureCtx(context.Background(), s); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("probe %d after threshold: %v", i, err)
		}
	}
	if n := f.attemptsFor(s); n != 2 {
		t.Fatalf("quarantined setting reached objective: %d attempts", n)
	}
	st := e.Stats()
	if st.Quarantined != 1 || st.QuarantineSkips != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if q := e.Quarantined(); len(q) != 1 || q[0] != s.Key() {
		t.Fatalf("Quarantined() = %v", q)
	}
	// Other settings are unaffected: a fresh key still reaches the objective
	// (and fails transiently, not with ErrQuarantined).
	if _, err := e.Measure(variant(f.sp, 16, 1)); errors.Is(err, ErrQuarantined) {
		t.Fatal("quarantine leaked to an unrelated setting")
	}
}

func TestSuccessClearsQuarantineStreak(t *testing.T) {
	f := newFlaky(t, 2, Transient(errors.New("flaky")))
	e := New(f, WithRetry(RetryPolicy{MaxAttempts: 1}), WithQuarantine(3))
	s := variant(f.sp, 40, 1)
	// Two failed episodes, then a success: the streak must reset.
	e.Measure(s)
	e.Measure(s)
	if ms, err := e.Measure(s); err != nil || ms != 40 {
		t.Fatalf("third episode = %v/%v, want success", ms, err)
	}
	if len(e.Quarantined()) != 0 {
		t.Fatal("quarantined despite a success before the threshold")
	}
}

func TestMeasureTimeoutIsTransient(t *testing.T) {
	f := newFlaky(t, 0, nil)
	f.block = make(chan struct{}) // every Measure hangs until released
	e := New(f, WithMeasureTimeout(5*time.Millisecond), WithRetry(RetryPolicy{MaxAttempts: 2, BackoffS: 0, Jitter: 0}), WithQuarantine(0))
	s := variant(f.sp, 24, 1)
	_, err := e.Measure(s)
	close(f.block)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("hung measurement returned %v, want ErrTimeout", err)
	}
	st := e.Stats()
	if st.Timeouts != 2 || st.Transient != 2 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Canceled != 0 {
		t.Fatal("a per-measurement timeout must not count as run cancellation")
	}
}

func TestRunCancellationChargesNothing(t *testing.T) {
	f := newFlaky(t, 0, nil)
	f.block = make(chan struct{})
	defer close(f.block)
	e := New(f, WithRetry(DefaultRetryPolicy()))
	ctx, cancel := context.WithCancel(context.Background())
	s := variant(f.sp, 24, 1)
	done := make(chan error, 1)
	go func() {
		_, err := e.MeasureCtx(ctx, s)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := e.Stats()
	if st.SpentS != 0 || st.Evaluations != 0 || st.Invalid != 0 {
		t.Fatalf("cancelled measurement was charged: %+v", st)
	}
	if st.Canceled != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A pre-cancelled context refuses every uncached key before the
	// objective is consulted.
	for _, s := range []space.Setting{variant(f.sp, 8, 1), variant(f.sp, 16, 1)} {
		if _, err := e.MeasureCtx(ctx, s); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled probe %s: %v", s.Key(), err)
		}
		if n := f.attemptsFor(s); n != 0 {
			t.Fatalf("pre-cancelled probe %s reached the objective: %d attempts", s.Key(), n)
		}
	}
	if st := e.Stats(); st.Canceled != 3 {
		t.Fatalf("Canceled = %d, want 3 (one abort, two refusals)", st.Canceled)
	}
	if len(e.Quarantined()) != 0 {
		t.Fatal("cancellation counted toward quarantine")
	}
}

func TestCachedResultsSurviveCancellation(t *testing.T) {
	f := newFake(t)
	e := New(f)
	s := variant(f.sp, 64, 2)
	want, err := e.Measure(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ms, err := e.MeasureCtx(ctx, s); err != nil || ms != want {
		t.Fatalf("cached probe under cancelled ctx = %v/%v, want %v", ms, err, want)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	f := newFake(t)
	a := New(f, WithSeed(7))
	b := New(f, WithSeed(7))
	c := New(f, WithSeed(8))
	var diff bool
	for attempt := 0; attempt < 4; attempt++ {
		x := a.backoffFor("k1", attempt)
		if y := b.backoffFor("k1", attempt); x != y {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", attempt, x, y)
		}
		if x <= 0 {
			t.Fatalf("backoff attempt %d = %v, want > 0", attempt, x)
		}
		if c.backoffFor("k1", attempt) != x {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical backoff schedules")
	}
	// Jitter stays within ±Jitter of the nominal schedule.
	p := a.retry
	for attempt := 0; attempt < 4; attempt++ {
		nominal := p.BackoffS * math.Pow(p.Multiplier, float64(attempt))
		got := a.backoffFor("k1", attempt)
		if got < nominal*(1-p.Jitter)-1e-12 || got > nominal*(1+p.Jitter)+1e-12 {
			t.Fatalf("attempt %d backoff %v outside ±%v of %v", attempt, got, p.Jitter, nominal)
		}
	}
}

func TestBestAtEvalsBoundaries(t *testing.T) {
	e := New(newFake(t))
	// Empty trajectory.
	if _, ok := e.BestAtEvals(1); ok {
		t.Fatal("empty trajectory must report ok=false")
	}
	e.traj = []Point{
		{CostS: 1.5, Evals: 1, BestMS: 10},
		{CostS: 3.0, Evals: 2, BestMS: 8},
		{CostS: 4.5, Evals: 3, BestMS: 8},
	}
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{-1, 0, false},
		{0, 0, false}, // before any measurement
		{1, 10, true}, // exact first boundary
		{2, 8, true},
		{3, 8, true},  // exact last boundary
		{99, 8, true}, // past the end clamps to the final best
	}
	for _, tc := range cases {
		got, ok := e.BestAtEvals(tc.n)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("BestAtEvals(%d) = %v/%v, want %v/%v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBestAtCostBoundaries(t *testing.T) {
	e := New(newFake(t))
	if _, ok := e.BestAtCost(10); ok {
		t.Fatal("empty trajectory must report ok=false")
	}
	e.traj = []Point{
		{CostS: 1.5, Evals: 1, BestMS: 10},
		{CostS: 3.0, Evals: 2, BestMS: 8},
	}
	cases := []struct {
		s    float64
		want float64
		ok   bool
	}{
		{0, 0, false},   // nothing finished at t=0
		{1.4, 0, false}, // just before the first point
		{1.5, 10, true}, // exact boundary is inclusive
		{2.9, 10, true},
		{3.0, 8, true},
		{100, 8, true},
	}
	for _, tc := range cases {
		got, ok := e.BestAtCost(tc.s)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("BestAtCost(%v) = %v/%v, want %v/%v", tc.s, got, ok, tc.want, tc.ok)
		}
	}
}
