package engine

import (
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/space"
	"repro/internal/stats"
)

// ErrQuarantined is returned for settings the engine has permanently given
// up on: they failed QuarantineAfter measurement episodes and will not be
// handed to the objective again for the lifetime of this engine.
var ErrQuarantined = errors.New("engine: setting quarantined after repeated failures")

// TransientError is the marker interface objectives (and fault injectors)
// use to flag an error as retryable. Errors without the marker are treated
// as permanent — the historical behaviour, under which an invalid setting
// deterministically fails every time.
type TransientError interface {
	error
	Transient() bool
}

type transientErr struct{ err error }

func (t transientErr) Error() string   { return t.err.Error() }
func (t transientErr) Unwrap() error   { return t.err }
func (t transientErr) Transient() bool { return true }

// Transient wraps err so the engine classifies it as retryable.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientErr{err: err}
}

// Class is the engine's error taxonomy; every measurement error falls into
// exactly one class, and the class alone decides retry/cache/quarantine
// behaviour (DESIGN.md §5).
type Class int

const (
	// ClassPermanent: the setting itself is bad (constraint violation,
	// resource overflow, deterministic compile error). Cached, counted
	// toward quarantine, never retried.
	ClassPermanent Class = iota
	// ClassTransient: the measurement failed but the setting may be fine
	// (injected fault, flaky timer). Retried with backoff, never cached.
	ClassTransient
	// ClassBudget: the virtual evaluation budget is exhausted (sim.ErrBudget
	// from this or a stacked engine). Never retried, never cached, never
	// counted toward quarantine.
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
	case ClassTransient:
		return "transient"
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
	var te TransientError
	if errors.As(err, &te) && te.Transient() {
		return ClassTransient
	}
	return ClassPermanent
}

// RetryPolicy bounds how the engine re-attempts transiently-failed
// measurements. Backoff time is charged to the virtual clock — a retried
// measurement is not free — and the jitter is deterministic, derived from
// the engine seed and the setting key, so retry schedules are identical
// across goroutine interleavings and reruns.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per measurement episode
	// (1 = no retries). Values below 1 behave as 1.
	MaxAttempts int
	// BackoffS is the virtual seconds charged before the first retry.
	BackoffS float64
	// Multiplier grows the backoff per further retry (<=0 defaults to 2).
	Multiplier float64
	// Jitter is the ± relative jitter applied to each backoff (0..1).
	Jitter float64
}

// DefaultRetryPolicy mirrors common testbed practice: three attempts with
// 0.5 s initial backoff doubling per retry, ±50% deterministic jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BackoffS: 0.5, Multiplier: 2, Jitter: 0.5}
}

// CtxObjective is the optional context-aware measurement surface. Objectives
// that implement it (the campaign gate's slot wait, the fault injector's slow
// calls) observe the run context while they measure. A plain objective's
// Measure runs to completion and its outcome is accounted like any other;
// the engine checks the run context before every episode. Both run on the
// caller's goroutine.
type CtxObjective interface {
	MeasureCtx(ctx context.Context, s space.Setting) (float64, error)
}

// episode is the outcome of one measurement episode: up to MaxAttempts
// attempts at a single setting, with deterministic backoff between
// transient failures. Running an episode changes no accounting state;
// accountEpisode applies its outcome afterwards in one critical section,
// so a concurrent reader of Stats or Best sees all of it or none.
type episode struct {
	ms        float64 // scored time: the median across repeats
	msSum     float64 // summed repeat time, what the cost model charges
	err       error
	attempts  int
	calls     int // objective invocations (attempts × repeats on success)
	transient int
	backoffS  float64
	replayed  bool // served from the campaign journal, not the objective
	fromStore bool // served from the cross-campaign result store
}

// measureEpisode runs the retry loop for one setting. On a resumed engine
// the key's journaled episodes replay first — per-key FIFO, through this
// same return path — so accounting downstream cannot tell a replayed
// episode from a live one.
func (e *Engine) measureEpisode(ctx context.Context, s space.Setting, key string) episode {
	if ep, ok := e.replayPop(key); ok {
		return ep
	}
	// Cross-campaign store probe: a prior campaign already measured this
	// setting on this (arch, shape), so serve its scored time instead of
	// measuring. The probe sits after journal replay — a resumed run replays
	// its recorded ClassStore hits and never reaches here for them — and
	// after every sequential gate, so gate outcomes are independent of store
	// content.
	if ms, ok := e.storeProbe(key); ok {
		return episode{ms: ms, msSum: ms, fromStore: true}
	}
	max := e.retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	var ep episode
	for a := 0; ; a++ {
		ms, msSum, calls, err := e.measureAttempt(ctx, s)
		ep.attempts++
		ep.calls += calls
		if err == nil {
			ep.ms, ep.msSum, ep.err = ms, msSum, nil // a late success clears earlier failures
			return ep
		}
		ep.err = err
		switch Classify(err) {
		case ClassTransient:
			ep.transient++
			if ep.attempts >= max {
				return ep
			}
			ep.backoffS += e.backoffFor(key, a)
		default: // permanent, budget, canceled: never retried
			return ep
		}
	}
}

// measureAttempt performs one retry-loop attempt: WithRepeats(n) calls the
// objective n times and scores the median (noise-robust), while the summed
// time is what the cost model charges — every repeat runs on the clock. Any
// failed repeat fails the attempt with that error. With the default single
// repeat the median and the sum are both the one measurement, preserving
// the historical arithmetic bit-for-bit.
func (e *Engine) measureAttempt(ctx context.Context, s space.Setting) (ms, msSum float64, calls int, err error) {
	n := e.repeats
	if n < 1 {
		n = 1
	}
	if n == 1 {
		v, err := e.measureOnce(ctx, s)
		return v, v, 1, err
	}
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v, err := e.measureOnce(ctx, s)
		calls++
		if err != nil {
			return 0, 0, calls, err
		}
		vals = append(vals, v)
		msSum += v
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		ms = vals[n/2]
	} else {
		ms = (vals[n/2-1] + vals[n/2]) / 2
	}
	return ms, msSum, calls, nil
}

// measureOnce performs a single objective call on the caller's goroutine: a
// CtxObjective sees the run context, any other objective runs Measure to
// completion and its outcome stands.
func (e *Engine) measureOnce(ctx context.Context, s space.Setting) (float64, error) {
	if co, ok := e.obj.(CtxObjective); ok {
		return co.MeasureCtx(ctx, s)
	}
	return e.obj.Measure(s)
}

// backoffFor returns the virtual backoff charged before retry number
// attempt (0-based) of the given setting, with deterministic jitter from
// (engine seed, setting key, attempt) — independent of scheduling.
func (e *Engine) backoffFor(key string, attempt int) float64 {
	p := e.retry
	if p.BackoffS <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	d := p.BackoffS * math.Pow(mult, float64(attempt))
	if p.Jitter > 0 {
		h := stats.Mix64(e.seed ^ stats.KeyHash(key) ^ stats.Mix64(uint64(attempt)+1))
		u := float64(h>>11) / float64(1<<53)
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		d *= 1 + j*(2*u-1)
	}
	return d
}

// quarantined is the quarantine gate for an uncached key: it reports
// whether key is quarantined, counting the refusal.
func (e *Engine) quarantined(key string) bool {
	if e.quarAfter <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.quar[key]; !ok {
		return false
	}
	e.stats.QuarantineSkips++
	return true
}

// noteFailureLocked records one definitively-failed episode (permanent
// error or retries exhausted) and quarantines the key once it reaches the
// threshold. Budget refusals and cancellations never count. Callers hold
// e.mu.
func (e *Engine) noteFailureLocked(key string) {
	if e.quarAfter <= 0 {
		return
	}
	e.permFails[key]++
	if e.permFails[key] < e.quarAfter {
		return
	}
	if _, ok := e.quar[key]; !ok {
		e.quar[key] = struct{}{}
		e.stats.Quarantined++
	}
}

// Quarantined returns the sorted keys of the quarantine set.
func (e *Engine) Quarantined() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.quar))
	for k := range e.quar {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// accountEpisode applies virtual cost, counters, caching, best tracking and
// quarantine bookkeeping for one finished episode. Everything a reader can
// see changes in one critical section under e.mu; the cache needs no lock,
// since only the measuring goroutine, which runs this, touches it. On the
// fault-free path (one successful or one permanently-failed attempt, no
// backoff) it charges and caches exactly what the pre-fault engine did.
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
		// previous campaign, so the virtual clock, the evaluation count and
		// the failure bookkeeping all stand still. The result still competes
		// for best (with a trajectory point only on improvement — free hits
		// advance neither axis) and lands in the memo cache, so a re-probe is
		// a cache hit.
		e.storeHits.Add(1)
		e.stats.SpentS = e.spentS
		if e.best < 0 || ep.ms < e.best {
			e.best = ep.ms
			e.bestSet = s.Clone()
			e.traj = append(e.traj, Point{CostS: e.spentS, Evals: e.evals, BestMS: e.best})
		}
		e.cacheTime(key, ep.ms)
		if e.quarAfter > 0 {
			delete(e.permFails, key) // a served success clears the streak
		}
		return ep.ms, nil
	}
	if e.store != nil && !(ep.err != nil && Classify(ep.err) == ClassCanceled) {
		// The episode consulted the store and measured (or failed) live.
		// Cancelled aborts are excluded: like everywhere else in the
		// accounting they are the shutdown itself, not an outcome.
		e.storeMisses.Add(1)
	}
	e.stats.Retries += ep.attempts - 1
	e.stats.Transient += ep.transient
	e.spentS += ep.backoffS
	if ep.err != nil {
		switch Classify(ep.err) {
		case ClassCanceled:
			// Aborted, not failed: nothing charged, nothing cached, and the
			// setting's quarantine record is untouched.
			e.stats.Canceled++
			e.stats.SpentS = e.spentS
			return 0, ep.err
		case ClassBudget:
			// A stacked engine refused the measurement: charged like a
			// rejected setting (historical behaviour) but never cached and
			// never counted toward quarantine.
			e.spentS += e.cost.CheckS
			e.stats.Invalid++
			e.stats.SpentS = e.spentS
			return 0, ep.err
		case ClassTransient:
			// Retries exhausted: charged, not cached (a later probe may
			// succeed), but the failed episode counts toward quarantine.
			e.spentS += e.cost.CheckS
			e.stats.SpentS = e.spentS
			e.noteFailureLocked(key)
			return 0, ep.err
		default: // permanent
			e.spentS += e.cost.CheckS
			e.stats.Invalid++
			e.stats.SpentS = e.spentS
			e.cacheErr(key, ep.err)
			e.noteFailureLocked(key)
			return 0, ep.err
		}
	}
	e.spentS += e.cost.CompileS + float64(e.cost.Reps)*ep.msSum/1000
	e.evals++
	e.stats.Evaluations++
	e.stats.SpentS = e.spentS
	if e.best < 0 || ep.ms < e.best {
		e.best = ep.ms
		e.bestSet = s.Clone()
	}
	e.traj = append(e.traj, Point{CostS: e.spentS, Evals: e.evals, BestMS: e.best})
	e.cacheTime(key, ep.ms)
	// Publish the paid-for measurement to the shared store (sequentially,
	// and after its journal sync — see storePublishLocked).
	e.storePublishLocked(key, ep.ms, ep.replayed)
	if e.quarAfter > 0 {
		delete(e.permFails, key) // a success clears the failure streak
	}
	return ep.ms, nil
}

// keyScratch sizes MeasureCtx's stack buffer for rendered setting keys. The
// stencil spaces here render to ~60 bytes; longer keys simply spill the
// append to the heap, costing an allocation but nothing else.
const keyScratch = 128

// MeasureCtx is the context-aware Measure: the cache is consulted first
// (cached results stay free even after cancellation), then quarantine, the
// run context, and the budget, and finally one retrying measurement episode
// runs against the inner objective.
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

// measureCtxSlow is the uncached gauntlet: quarantine, run context, budget,
// then one measurement episode and its accounting.
func (e *Engine) measureCtxSlow(ctx context.Context, s space.Setting, key string) (float64, error) {
	if e.quarantined(key) {
		return 0, ErrQuarantined
	}
	if err := ctx.Err(); err != nil {
		e.mu.Lock()
		e.stats.Canceled++
		e.mu.Unlock()
		return 0, err
	}
	if e.budgetRefuses() {
		return 0, ErrBudget
	}
	return e.accountEpisode(s, key, e.measureEpisode(ctx, s, key))
}
