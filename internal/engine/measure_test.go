package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/space"
	"repro/internal/stencil"
	"repro/internal/vfs"
)

// blockingObj counts calls per key and measures TBx. While block is
// non-nil, MeasureCtx waits on it or on the run context.
type blockingObj struct {
	sp *space.Space

	mu    sync.Mutex
	calls map[string]int
	block chan struct{}
}

func newBlocking(t testing.TB) *blockingObj {
	t.Helper()
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	return &blockingObj{sp: sp, calls: map[string]int{}}
}

func (o *blockingObj) Space() *space.Space { return o.sp }

func (o *blockingObj) Measure(s space.Setting) (float64, error) {
	return o.MeasureCtx(context.Background(), s)
}

// MeasureCtx implements CtxObjective: a blocked call ends with the run
// context's error once that context is done.
func (o *blockingObj) MeasureCtx(ctx context.Context, s space.Setting) (float64, error) {
	o.mu.Lock()
	o.calls[s.Key()]++
	block := o.block
	o.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return float64(s[space.TBX]), nil
}

func (o *blockingObj) callCount(s space.Setting) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls[s.Key()]
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"plain error is permanent", errors.New("boom"), ClassPermanent},
		{"budget", ErrBudget, ClassBudget},
		{"wrapped budget", errors.Join(errors.New("ctx"), ErrBudget), ClassBudget},
		{"context canceled", context.Canceled, ClassCanceled},
		{"context deadline", context.DeadlineExceeded, ClassCanceled},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if ClassBudget.String() != "budget" || ClassPermanent.String() != "permanent" {
		t.Fatal("Class.String names diverged")
	}
}

func TestPermanentErrorIsNeverRetried(t *testing.T) {
	f := newFake(t)
	e := New(f)
	bad := variant(f.sp, 999, 1)
	if _, err := e.Measure(bad); !errors.Is(err, errFakeInvalid) {
		t.Fatalf("err = %v", err)
	}
	if n := f.callCount(bad); n != 1 {
		t.Fatalf("permanent error retried: %d inner calls", n)
	}
	if st := e.Stats(); st.Invalid != 1 || st.SpentS != CheckS {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunCancellationChargesNothing(t *testing.T) {
	f := newBlocking(t)
	f.block = make(chan struct{})
	defer close(f.block)
	e := New(f)
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
	if st.Canceled != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A pre-cancelled context refuses every uncached key before the
	// objective is consulted.
	for _, s := range []space.Setting{variant(f.sp, 8, 1), variant(f.sp, 16, 1)} {
		if _, err := e.MeasureCtx(ctx, s); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled probe %s: %v", s.Key(), err)
		}
		if n := f.callCount(s); n != 0 {
			t.Fatalf("pre-cancelled probe %s reached the objective: %d calls", s.Key(), n)
		}
	}
	if st := e.Stats(); st.Canceled != 3 {
		t.Fatalf("Canceled = %d, want 3 (one abort, two refusals)", st.Canceled)
	}
}

// cancelingObj is a plain objective, without MeasureCtx, whose Measure ends
// the run context and then returns 5 ms: a cancellation that lands while a
// measurement runs.
type cancelingObj struct {
	sp     *space.Space
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (o *cancelingObj) Space() *space.Space { return o.sp }

func (o *cancelingObj) Measure(space.Setting) (float64, error) {
	o.calls.Add(1)
	o.cancel()
	return 5, nil
}

// TestPlainMeasureOutcomeStandsAfterCancel pins the contract for plain
// objectives: Measure runs to completion on the caller's goroutine, and its
// outcome is accounted, cached and journaled like any other even when the
// run context ends while it runs. The cancellation is seen by the next
// uncached key's gauntlet, which refuses it before the objective.
func TestPlainMeasureOutcomeStandsAfterCancel(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		name := "plain"
		if journaled {
			name = "journaled"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obj := &cancelingObj{sp: newFake(t).sp, cancel: cancel}
			var j *journal.Journal
			var path string
			var opts []Option
			if journaled {
				j, path = journalAt(t, "fp")
				opts = append(opts, WithJournal(j))
			}
			e := New(obj, opts...)
			s := variant(obj.sp, 24, 1)
			if ms, err := e.MeasureCtx(ctx, s); err != nil || ms != 5 {
				t.Fatalf("MeasureCtx = %v/%v, want 5/nil", ms, err)
			}
			if st := e.Stats(); st.Evaluations != 1 || st.Canceled != 0 {
				t.Fatalf("stats = %+v, want 1 evaluation and 0 canceled", st)
			}
			if ms, err := e.MeasureCtx(ctx, s); err != nil || ms != 5 || e.Stats().CacheHits != 1 {
				t.Fatalf("cached re-probe = %v/%v, stats %+v", ms, err, e.Stats())
			}
			if _, err := e.MeasureCtx(ctx, variant(obj.sp, 32, 1)); !errors.Is(err, context.Canceled) {
				t.Fatalf("next uncached key: err = %v, want context.Canceled", err)
			}
			if n := obj.calls.Load(); n != 1 {
				t.Fatalf("objective called %d times, want 1", n)
			}
			if st := e.Stats(); st.Evaluations != 1 || st.Canceled != 1 {
				t.Fatalf("stats = %+v, want 1 evaluation and 1 canceled", st)
			}
			if !journaled {
				return
			}
			if err := e.SyncJournal(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := journal.OpenFS(vfs.OS, path, "fp")
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			rec := j2.Recovered()
			if len(rec) != 1 || rec[0].Key != s.Key() || rec[0].Class != journal.ClassOK || rec[0].MS != 5 {
				t.Fatalf("journal holds %+v, want one ok record of 5 ms for %s", rec, s.Key())
			}
		})
	}
}

// TestUncachedMeasureAllocsIgnoreCancellableContext: a plain objective is
// measured on the caller's goroutine whatever the context, so a cancellable
// run context costs an uncached MeasureCtx no allocation.
func TestUncachedMeasureAllocsIgnoreCancellableContext(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	sp := newFake(t).sp
	const runs = 200
	settings := make([]space.Setting, runs+1) // AllocsPerRun adds a warm-up run
	for i := range settings {
		settings[i] = benchVariant(sp, i)
	}
	allocs := func(ctx context.Context) float64 {
		e := New(&clockObj{sp: sp})
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := e.MeasureCtx(ctx, settings[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	background := allocs(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancellable := allocs(ctx); cancellable > background {
		t.Fatalf("uncached MeasureCtx allocates %v under a cancellable context, %v under Background", cancellable, background)
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
