package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// countingObjective cancels the run context after n measurements.
type countingObjective struct {
	inner  *sim.Simulator
	n      int64
	after  int64
	cancel context.CancelFunc
}

func (c *countingObjective) Space() *space.Space { return c.inner.Space() }

func (c *countingObjective) Measure(s space.Setting) (float64, error) {
	if atomic.AddInt64(&c.n, 1) == c.after {
		c.cancel()
	}
	return c.inner.Measure(s)
}

// Run forwards offline dataset collection uncounted: the test cancels during
// the metered search phase, after the dataset exists.
func (c *countingObjective) Run(s space.Setting) (*sim.Result, error) { return c.inner.Run(s) }

// Architecture names the simulator's GPU, so codegen runs behind the wrapper.
func (c *countingObjective) Architecture() *gpu.Arch { return c.inner.Architecture() }

func TestTuneCtxPreCancelled(t *testing.T) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := TuneCtx(ctx, s, nil, quickConfig(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A run cancelled before any measurement may have nothing to report, but
	// a non-nil report must be internally consistent.
	if rep != nil && rep.Best != nil {
		if verr := sp.Validate(rep.Best); verr != nil {
			t.Fatalf("partial best invalid: %v", verr)
		}
	}
}

func TestTuneCtxMidRunCancellationReturnsPartialReport(t *testing.T) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sp, gpu.A100())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel mid-search: well after dataset collection (64 samples) so a
	// partial best exists, well before the search would finish naturally.
	obj := &countingObjective{inner: s, after: 100, cancel: cancel}
	rep, err := TuneCtx(ctx, obj, nil, quickConfig(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("mid-run cancellation must return a partial report")
	}
	if rep.Best == nil || rep.BestMS <= 0 {
		t.Fatalf("partial report carries no best: %+v", rep)
	}
	if verr := sp.Validate(rep.Best); verr != nil {
		t.Fatalf("partial best invalid: %v", verr)
	}
	if ms, merr := s.Measure(rep.Best); merr != nil || ms != rep.BestMS {
		t.Fatalf("partial best not reproducible: %v/%v vs %v", ms, merr, rep.BestMS)
	}
	// The objective call that ended the run ran to completion, like every
	// call before it: each one is accounted as an evaluation or a rejection.
	if n := atomic.LoadInt64(&obj.n); int64(rep.Engine.Evaluations+rep.Engine.Invalid) != n {
		t.Fatalf("engine accounted %d evaluations + %d invalid, objective ran %d times: %+v",
			rep.Engine.Evaluations, rep.Engine.Invalid, n, rep.Engine)
	}
	// The partial report's timing spans must include the cancellation point
	// itself: a "canceled" span recording how far into the run the abort
	// landed, so interrupted-run telemetry accounts for the whole wall time.
	found := false
	for _, span := range rep.Spans {
		if span.Name == "canceled" {
			found = true
			if span.Count != 1 || span.Total <= 0 {
				t.Fatalf("canceled span malformed: %+v", span)
			}
		}
	}
	if !found {
		t.Fatalf("no %q span in partial report: %+v", "canceled", rep.Spans)
	}
	// The run stopped early: far fewer measurements than an uncancelled run.
	full, err := Tune(s, nil, quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine.Evaluations >= full.Engine.Evaluations {
		t.Fatalf("cancelled run measured %d, full run %d — did not stop early",
			rep.Engine.Evaluations, full.Engine.Evaluations)
	}
}
