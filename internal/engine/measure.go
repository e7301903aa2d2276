package engine

import (
	"context"
	"errors"
	"math"

	"repro/internal/space"
)

// Class is the engine's error taxonomy; every measurement error falls into
// exactly one class, and the class alone decides cache and charge behaviour
// (DESIGN.md §5).
type Class int

const (
	// ClassPermanent: the setting itself is bad (constraint violation,
	// resource overflow, deterministic compile error). Cached and charged
	// CheckS.
	ClassPermanent Class = iota
	// ClassBudget: the virtual evaluation budget is exhausted (sim.ErrBudget
	// from this or a stacked engine). Charged CheckS, never cached.
	ClassBudget
	// ClassCanceled: the run-level context was cancelled or its deadline
	// passed. The episode aborts immediately and nothing is charged.
	ClassCanceled
)

// String names the class for diagnostics.
func (c Class) String() string {
	switch c {
	case ClassPermanent:
		return "permanent"
	case ClassBudget:
		return "budget"
	case ClassCanceled:
		return "canceled"
	}
	return "unknown"
}

// Classify maps a measurement error into the engine's taxonomy.
func Classify(err error) Class {
	switch {
	case errors.Is(err, ErrBudget):
		return ClassBudget
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	}
	return ClassPermanent
}

// CtxObjective is the optional context-aware measurement surface. Objectives
// that implement it (the campaign gate's slot wait) observe the run context
// while they measure. A plain objective's Measure runs to completion and its
// outcome is accounted like any other; the engine checks the run context
// before every episode. Both run on the caller's goroutine.
type CtxObjective interface {
	MeasureCtx(ctx context.Context, s space.Setting) (float64, error)
}

// episode is the outcome of one measurement episode at a single setting:
// one objective call, or the journal record or store hit that stands in for
// it. Running an episode changes no accounting state; accountEpisode
// applies its outcome afterwards in one critical section, so a concurrent
// reader of Stats or Best sees all of it or none.
type episode struct {
	ms        float64
	err       error
	replayed  bool // served from the campaign journal, not the objective
	fromStore bool // served from the cross-campaign result store
}

// measureEpisode runs one episode for a setting. On a resumed engine the
// key's journaled episodes replay first — per-key FIFO, through this same
// return path — so accounting downstream cannot tell a replayed episode
// from a live one.
func (e *Engine) measureEpisode(ctx context.Context, s space.Setting, key string) episode {
	if ep, ok := e.replayPop(key); ok {
		return ep
	}
	// Cross-campaign store probe: a prior campaign already measured this
	// setting on this (arch, shape), so serve its time instead of
	// measuring. The probe sits after journal replay — a resumed run replays
	// its recorded ClassStore hits and never reaches here for them — and
	// after every sequential gate, so gate outcomes are independent of store
	// content.
	if ms, ok := e.storeProbe(key); ok {
		return episode{ms: ms, fromStore: true}
	}
	// One objective call on the caller's goroutine: a CtxObjective sees the
	// run context, any other objective runs Measure to completion and its
	// outcome stands.
	var ep episode
	if co, ok := e.obj.(CtxObjective); ok {
		ep.ms, ep.err = co.MeasureCtx(ctx, s)
	} else {
		ep.ms, ep.err = e.obj.Measure(s)
	}
	return ep
}

// episodeCostS prices one finished episode on the virtual clock: what
// accountEpisode charges and the episode's journal record carries.
func episodeCostS(ep episode) float64 {
	switch {
	case ep.fromStore:
		return 0 // the measurement was paid for by a previous campaign
	case ep.err == nil:
		return CompileS + Reps*ep.ms/1000
	}
	return CheckS
}

// accountEpisode applies virtual cost, counters, caching and best tracking
// for one finished episode. Everything a reader can see changes in one
// critical section under e.mu; the cache needs no lock, since only the
// measuring goroutine, which runs this, touches it.
func (e *Engine) accountEpisode(s space.Setting, key string, ep episode) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Write-ahead: the episode is in the campaign journal before any
	// accounting state changes, so a crash between here and return loses at
	// most an episode the engine never charged. Replay re-serves the journal
	// through this same function, which is why it never re-appends. A
	// constraint rejection gets no record: resume re-checks it live.
	if err := e.journalEpisodeLocked(key, ep); err != nil {
		return 0, err
	}
	// Deferred so that the sync closing a batch also covers, and releases,
	// this episode's store publish.
	defer e.maybeSyncJournalLocked()
	if ep.fromStore {
		// A cross-campaign store hit: the measurement was paid for by a
		// previous campaign, so the virtual clock and the evaluation count
		// stand still. The result still competes for best (with a trajectory
		// point only on improvement — free hits advance neither axis) and
		// lands in the memo cache, so a re-probe is a cache hit.
		e.stats.StoreHits++
		if e.best < 0 || ep.ms < e.best {
			e.best = ep.ms
			e.bestSet = s.Clone()
			e.traj = append(e.traj, Point{CostS: e.stats.SpentS, Evals: e.stats.Evaluations, BestMS: e.best})
		}
		e.cacheTime(key, ep.ms)
		return ep.ms, nil
	}
	if e.store != nil && !(ep.err != nil && Classify(ep.err) == ClassCanceled) {
		// The episode consulted the store and measured (or failed) live.
		// Cancelled aborts are excluded: like everywhere else in the
		// accounting they are the shutdown itself, not an outcome.
		e.stats.StoreMisses++
	}
	if ep.err != nil {
		switch Classify(ep.err) {
		case ClassCanceled:
			// Aborted, not failed: nothing charged, nothing cached.
			e.stats.Canceled++
			return 0, ep.err
		case ClassPermanent:
			e.cacheErr(key, ep.err)
		}
		// A permanent error, or a stacked engine's budget refusal, which is
		// charged like a rejected setting but never cached.
		e.stats.SpentS += episodeCostS(ep)
		e.stats.Invalid++
		return 0, ep.err
	}
	e.stats.SpentS += episodeCostS(ep)
	e.stats.Evaluations++
	if e.best < 0 || ep.ms < e.best {
		e.best = ep.ms
		e.bestSet = s.Clone()
	}
	e.traj = append(e.traj, Point{CostS: e.stats.SpentS, Evals: e.stats.Evaluations, BestMS: e.best})
	e.cacheTime(key, ep.ms)
	// Publish the paid-for measurement to the shared store (sequentially,
	// and after its journal sync — see storePublishLocked).
	e.storePublishLocked(key, ep.ms)
	return ep.ms, nil
}

// keyScratch sizes MeasureCtx's stack buffer for rendered setting keys. The
// stencil spaces here render to ~60 bytes; longer keys simply spill the
// append to the heap, costing an allocation but nothing else.
const keyScratch = 128

// MeasureCtx is the context-aware Measure: the cache is consulted first
// (cached results stay free even after cancellation), then the run context
// and the budget, and finally one measurement episode runs against the
// inner objective.
//
// The cache probe is the hot path — tuning traffic is dominated by re-probes
// of already-measured settings — and takes no lock and no allocation: the
// key is rendered into a stack buffer and indexes the memo map directly;
// only a miss materializes the key string and enters the slow path.
func (e *Engine) MeasureCtx(ctx context.Context, s space.Setting) (float64, error) {
	var kb [keyScratch]byte
	key := s.AppendKey(kb[:0])
	if ms, err, ok := measureView(e.cache[string(key)]); ok {
		e.cacheHits.Add(1)
		return ms, err
	}
	return e.measureCtxSlow(ctx, s, string(key))
}

// measureCtxSlow is the uncached gauntlet: run context, budget, journal,
// then one measurement episode and its accounting.
func (e *Engine) measureCtxSlow(ctx context.Context, s space.Setting, key string) (float64, error) {
	if err := ctx.Err(); err != nil {
		e.mu.Lock()
		e.stats.Canceled++
		e.mu.Unlock()
		return 0, err
	}
	if e.budgetRefuses() {
		return 0, ErrBudget
	}
	if e.jr != nil {
		// A failed journal takes no more records, so the episode would be
		// measured and charged for nothing (DESIGN.md §6).
		if err := e.jr.Err(); err != nil {
			return 0, err
		}
	}
	return e.accountEpisode(s, key, e.measureEpisode(ctx, s, key))
}

// Stop is a tuner's stop poll under its run context: true once stop
// reports true (a nil stop never does) or ctx has ended.
func Stop(ctx context.Context, stop func() bool) func() bool {
	if stop == nil {
		return func() bool { return ctx.Err() != nil }
	}
	return func() bool { return stop() || ctx.Err() != nil }
}

// Probe is the cost function the tuners search with: it polls stop before
// every measurement, cached ones included, and scores a stopped search or a
// failed measurement +Inf. Pass it the poll from Stop, so that a cancelled
// run stops scoring even the settings it already measured.
func (e *Engine) Probe(ctx context.Context, stop func() bool) func(space.Setting) float64 {
	return func(s space.Setting) float64 {
		if stop() {
			return math.Inf(1)
		}
		ms, err := e.MeasureCtx(ctx, s)
		if err != nil {
			return math.Inf(1)
		}
		return ms
	}
}
