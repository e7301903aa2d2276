// Package engine is the unified evaluation engine: the single measurement
// path every auto-tuner in this repository goes through. It wraps any
// sim.Objective with
//
//   - a concurrency-safe memoizing cache keyed on the setting, which caches
//     invalid-setting errors (deterministic: the same setting always fails)
//     but never sim.ErrBudget (transient: a later run of the same engine
//     family may still measure the setting);
//   - unified virtual-budget enforcement — the harness cost model charges a
//     compilation cost per distinct measured setting and a check cost per
//     rejected one, and the engine refuses further measurements once the
//     budget is spent;
//   - best-so-far tracking with a full trajectory (best time after k
//     evaluations / after s virtual seconds), which the iso-iteration and
//     iso-time protocols query;
//   - an observability surface: per-run counters (evaluations, cache hits,
//     invalid settings, budget trips) and named timing spans that flow into
//     core.Report.
//
// Measurements run on the caller's goroutine; the engine has no worker
// pool. Callers that measure concurrently, such as the GA's islands, share
// one lock-free cache, and per-key singleflight collapses their requests
// for one uncached setting onto a single episode.
package engine

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stripe"
)

// ErrBudget re-exports the transient budget error tuners test for.
var ErrBudget = sim.ErrBudget

// CostModel prices one evaluation on the virtual clock (folded in from the
// harness meter; see DESIGN.md — compilation dominates real auto-tuning).
type CostModel struct {
	// CompileS is charged per distinct measured setting (nvcc + load).
	CompileS float64
	// Reps is how many times the kernel runs per measurement; the run time
	// itself is the simulated kernel time.
	Reps int
	// CheckS is charged per rejected setting (constraint check only).
	CheckS float64
}

// DefaultCostModel approximates the paper's testbed: a few seconds of nvcc
// per variant dominates, with kernels re-run a handful of times.
func DefaultCostModel() CostModel {
	return CostModel{CompileS: 1.5, Reps: 3, CheckS: 0.005}
}

// Point is one trajectory sample: after spending CostS virtual seconds and
// Evals measurements, the best time seen so far was BestMS.
type Point struct {
	CostS  float64
	Evals  int
	BestMS float64
}

// Stats is the engine's per-run counter snapshot.
type Stats struct {
	// Evaluations counts successful objective measurements (cache misses
	// that produced a time).
	Evaluations int
	// CacheHits counts measurements served from the memoizing cache,
	// including cached invalid-setting errors.
	CacheHits int
	// Invalid counts invalid-setting errors observed from the objective
	// (each is cached, so it is charged at most once).
	Invalid int
	// BudgetTrips counts measurements refused because the virtual budget
	// was already spent.
	BudgetTrips int
	// Transient counts transient measurement errors observed from the
	// objective (injected faults, flaky timers).
	Transient int
	// Retries counts re-attempts after transient failures (attempts beyond
	// the first, across all measurement episodes).
	Retries int
	// Quarantined counts settings the engine has permanently given up on.
	Quarantined int
	// QuarantineSkips counts measurements refused because the setting was
	// already quarantined.
	QuarantineSkips int
	// Canceled counts measurements aborted or refused by run-level context
	// cancellation.
	Canceled int
	// StoreHits counts measurement episodes served from the cross-campaign
	// result store (WithStore) instead of the objective. Store hits charge
	// zero budget and do not count as Evaluations.
	StoreHits int
	// StoreMisses counts measurement episodes that consulted the store and
	// had to measure (or fail) live.
	StoreMisses int
	// WarmStartSeeds counts prior-best settings injected into this run's
	// search from the store (sampling set + GA initial population).
	WarmStartSeeds int
	// DirSyncErrs counts the journal's directory-fsync failures: a journal
	// created durably whose directory entry may not survive a power loss.
	// Environment weather, not run semantics — it is excluded from the
	// campaign canonical string (a run on a flaky disk still computes the
	// same result).
	DirSyncErrs int
	// StorePutDrops counts publishes to a degraded (read-only) result
	// store: the in-memory index took them, but nothing persisted.
	// Environment weather like DirSyncErrs, excluded from canonical.
	StorePutDrops int
	// SpentS is the virtual seconds consumed so far.
	SpentS float64
}

// Span is one aggregated named timing span (e.g. a pipeline stage).
type Span struct {
	Name  string
	Count int
	Total time.Duration
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithCost sets the virtual cost model (defaults to DefaultCostModel).
func WithCost(c CostModel) Option { return func(e *Engine) { e.cost = c } }

// WithBudget stops the engine once the virtual clock passes budgetS seconds;
// 0 means unlimited (iso-iteration runs use evaluation counts instead).
func WithBudget(budgetS float64) Option { return func(e *Engine) { e.budgetS = budgetS } }

// WithRetry sets the transient-failure retry policy (defaults to
// DefaultRetryPolicy; MaxAttempts 1 disables retries).
func WithRetry(p RetryPolicy) Option { return func(e *Engine) { e.retry = p } }

// WithSeed seeds the deterministic backoff jitter (defaults to 0; retry
// schedules are a pure function of seed, setting key and attempt number).
func WithSeed(seed uint64) Option { return func(e *Engine) { e.seed = seed } }

// WithQuarantine quarantines a setting after n definitively-failed
// measurement episodes (permanent errors or exhausted retries); n <= 0
// disables quarantine. Defaults to DefaultQuarantineAfter.
func WithQuarantine(n int) Option { return func(e *Engine) { e.quarAfter = n } }

// DefaultQuarantineAfter is the default episode-failure threshold. With the
// cache enabled a permanent error is memoized after its first episode, so
// quarantine matters mainly for settings that keep failing transiently.
const DefaultQuarantineAfter = 3

// Engine implements sim.Objective over an inner objective. It is safe for
// concurrent use: csTuner's GA measures from several goroutines.
type Engine struct {
	obj       sim.Objective
	cost      CostModel
	budgetS   float64
	retry     RetryPolicy
	seed      uint64
	quarAfter int
	repeats   int
	jr        *journal.Journal
	clock     Clock

	// cache is the memo store (cache.go): hits are lock-free reads of
	// atomically-published immutable entries and never touch mu. The hit
	// counter rides beside it as an atomic so the hot path stays lock-free;
	// Stats() folds it back into the snapshot.
	cache     *stripe.Map[*cacheEntry]
	cacheHits atomic.Int64

	// store is the optional cross-campaign result store (store.go):
	// consulted on a memo-cache miss before measuring, published back on
	// every successful episode. Probes are lock-free; the counters are
	// atomics folded in by statsLocked, like cacheHits.
	store       ResultStore
	storePrefix string
	storeHits   atomic.Int64
	storeMisses atomic.Int64
	warmSeeds   atomic.Int64
	storeDrops  atomic.Int64

	mu        sync.Mutex
	permFails map[string]int
	quar      map[string]struct{}

	// journal replay/recording state (journal.go). unsynced counts records
	// appended since the last journal sync; queued holds the store
	// publishes those records cover until that sync.
	replay        map[string][]journal.Episode
	replayPending int
	replayed      int
	journalErr    error
	unsynced      int
	queued        []storePut

	// sfMu/inflight give MeasureCtx per-key singleflight: concurrent
	// requests for one uncached key collapse onto a single measurement
	// episode, so the measurement history is independent of goroutine
	// scheduling — the property journal replay depends on.
	sfMu     sync.Mutex
	inflight map[string]chan struct{}

	spentS  float64
	evals   int
	best    float64
	bestSet space.Setting
	traj    []Point

	stats Stats
	spans map[string]*Span
	order []string // span first-use order
}

// New wraps obj in a fresh engine.
func New(obj sim.Objective, opts ...Option) *Engine {
	e := &Engine{
		obj:       obj,
		cost:      DefaultCostModel(),
		best:      -1,
		retry:     DefaultRetryPolicy(),
		quarAfter: DefaultQuarantineAfter,
		cache:     stripe.New[*cacheEntry](),
		permFails: map[string]int{},
		quar:      map[string]struct{}{},
		spans:     map[string]*Span{},
		inflight:  map[string]chan struct{}{},
		clock:     time.Now, // value use: the sanctioned wall-clock seam (see Clock)
	}
	for _, o := range opts {
		o(e)
	}
	if e.jr != nil {
		e.initReplay()
	}
	return e
}

// From returns obj itself when it already is an engine — tuners call it so
// stacked layers (harness budget engine → baseline adapter → core pipeline)
// share one cache, one budget, and one stats surface — and otherwise wraps
// obj in a fresh engine with the given options.
func From(obj sim.Objective, opts ...Option) *Engine {
	if e, ok := obj.(*Engine); ok {
		return e
	}
	return New(obj, opts...)
}

// Space implements sim.Objective.
func (e *Engine) Space() *space.Space { return e.obj.Space() }

// Architecture implements sim.ArchProvider by forwarding the wrapped
// objective's GPU model, so the codegen stage survives engine wrapping.
func (e *Engine) Architecture() *gpu.Arch {
	if ap, ok := e.obj.(sim.ArchProvider); ok {
		return ap.Architecture()
	}
	return nil
}

// Unwrap returns the inner objective.
func (e *Engine) Unwrap() sim.Objective { return e.obj }

// Measure implements sim.Objective: cache lookup, then quarantine and budget
// enforcement, then one retrying measurement episode against the inner
// objective. It is MeasureCtx without a run context.
func (e *Engine) Measure(s space.Setting) (float64, error) {
	return e.MeasureCtx(context.Background(), s)
}

// lookup consults the cache; ok=false means the setting must be measured.
// Hits are lock-free reads of the striped index — the engine mutex guards
// accounting only, never the memo maps (DESIGN.md §12).
func (e *Engine) lookup(key string) (float64, error, bool) {
	if ms, err, ok := measureView(e.cache.Load(key)); ok {
		e.cacheHits.Add(1)
		return ms, err, true
	}
	return 0, nil, false
}

// budgetRefuses is the budget gate for a caller whose lookup of key missed:
// it reports whether the budget is spent and counts the refusal as a budget
// trip. When a competing episode has cached key since that lookup, possibly
// spending the last of the budget on it, the gate lets the caller through
// to be served the hit, as a sequential second call would be.
func (e *Engine) budgetRefuses(key string) bool {
	if e.budgetS <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.spentS < e.budgetS || e.cachedLocked(key) {
		return false
	}
	e.stats.BudgetTrips++
	return true
}

// cachedLocked reports whether key has a cached Measure outcome. Callers
// hold e.mu, under which every episode's accounting and its cache publish
// happen together, so a gate that reads both sees either neither or both.
func (e *Engine) cachedLocked(key string) bool {
	_, _, ok := measureView(e.cache.Load(key))
	return ok
}

// Exhausted reports whether the budget has been spent; tuners poll this as
// their stop function.
func (e *Engine) Exhausted() bool {
	if e.budgetS <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spentS >= e.budgetS
}

// SpentS returns the virtual seconds consumed so far.
func (e *Engine) SpentS() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spentS
}

// Evals returns the number of successful measurements.
func (e *Engine) Evals() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}

// Best returns the best observation, or ok=false when nothing measured.
func (e *Engine) Best() (space.Setting, float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.best < 0 {
		return nil, 0, false
	}
	return e.bestSet.Clone(), e.best, true
}

// BestAtEvals returns the best time after the first n measurements, or
// ok=false when fewer than one measurement happened.
func (e *Engine) BestAtEvals(n int) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.traj) == 0 || n < 1 {
		return 0, false
	}
	i := sort.Search(len(e.traj), func(k int) bool { return e.traj[k].Evals > n })
	if i == 0 {
		return 0, false
	}
	return e.traj[i-1].BestMS, true
}

// BestAtCost returns the best time once the virtual clock reached s seconds.
func (e *Engine) BestAtCost(s float64) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.traj) == 0 {
		return 0, false
	}
	i := sort.Search(len(e.traj), func(k int) bool { return e.traj[k].CostS > s })
	if i == 0 {
		return 0, false
	}
	return e.traj[i-1].BestMS, true
}

// Trajectory returns a copy of the recorded points.
func (e *Engine) Trajectory() []Point {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Point(nil), e.traj...)
}

// Stats returns a snapshot of the per-run counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

// statsLocked folds the lock-free hit counter into the mutex-guarded
// counters. Callers hold e.mu. Between concurrent operations the fold is a
// consistent point-in-time sum; after a run quiesces it equals the
// sequential count exactly, which is what the determinism goldens compare.
func (e *Engine) statsLocked() Stats {
	st := e.stats
	st.CacheHits = int(e.cacheHits.Load())
	st.StoreHits = int(e.storeHits.Load())
	st.StoreMisses = int(e.storeMisses.Load())
	st.WarmStartSeeds = int(e.warmSeeds.Load())
	st.StorePutDrops = int(e.storeDrops.Load())
	if e.jr != nil {
		// Degradation weather from the journal: counted there (the append
		// path owns the failures), folded here so one Stats snapshot carries
		// the whole per-run degradation picture.
		st.DirSyncErrs = int(e.jr.DirSyncErrs())
	}
	return st
}

// Time starts a named timing span and returns its stop function; repeated
// spans of the same name aggregate. Pipeline stages use it so per-stage
// durations surface on the report:
//
//	defer eng.Time("grouping")()
func (e *Engine) Time(name string) func() {
	start := e.clock()
	return func() { e.ObserveSpan(name, e.clock().Sub(start)) }
}

// ObserveSpan records one already-measured duration under a named span —
// for callers whose interval has no tidy start/stop bracketing, such as the
// pipeline marking the cancellation point of a cut-short run.
func (e *Engine) ObserveSpan(name string, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sp := e.spans[name]
	if sp == nil {
		sp = &Span{Name: name}
		e.spans[name] = sp
		e.order = append(e.order, name)
	}
	sp.Count++
	sp.Total += d
}

// Spans returns the aggregated timing spans in first-use order.
func (e *Engine) Spans() []Span {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Span, 0, len(e.order))
	for _, name := range e.order {
		out = append(out, *e.spans[name])
	}
	return out
}

var (
	_ sim.Objective    = (*Engine)(nil)
	_ sim.ArchProvider = (*Engine)(nil)
)
