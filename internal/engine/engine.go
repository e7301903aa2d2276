// Package engine is the unified evaluation engine: the single measurement
// path every auto-tuner in this repository goes through. It wraps any
// sim.Objective with
//
//   - a memoizing cache keyed on the setting, which caches
//     invalid-setting errors (deterministic: the same setting always fails)
//     but never sim.ErrBudget (transient: a later run of the same engine
//     family may still measure the setting);
//   - unified virtual-budget enforcement — the cost constants charge a
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
// pool and starts no goroutine. One goroutine measures through an engine,
// so the cache is a plain map and the measurement history is a pure
// function of that goroutine's requests; other goroutines may read the
// counters, best and trajectory while it runs.
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
	"repro/internal/store"
)

// ErrBudget re-exports the transient budget error tuners test for.
var ErrBudget = sim.ErrBudget

// The cost model prices one evaluation on the virtual clock. It
// approximates the paper's testbed: a few seconds of nvcc per variant
// dominates real auto-tuning, with kernels re-run a handful of times
// (DESIGN.md §4). A measured setting costs CompileS + Reps·ms/1000.
const (
	// CompileS is charged per distinct measured setting (nvcc + load).
	CompileS = 1.5
	// Reps is how many times the kernel runs per measurement; the run time
	// itself is the simulated kernel time.
	Reps = 3
	// CheckS is charged per rejected setting (constraint check only).
	CheckS = 0.005
)

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

// WithBudget stops the engine once the virtual clock passes budgetS seconds;
// 0 means unlimited (iso-iteration runs use evaluation counts instead).
func WithBudget(budgetS float64) Option { return func(e *Engine) { e.budgetS = budgetS } }

// Engine implements sim.Objective over an inner objective. One goroutine
// calls Measure, MeasureCtx and Run; any goroutine may call Stats, Best,
// Trajectory, Spans and Exhausted meanwhile, as the daemon's pollers do.
type Engine struct {
	obj     sim.Objective
	budgetS float64
	jr      *journal.Journal
	clock   Clock

	// cache is the memo store (cache.go), touched only by the measuring
	// goroutine. The hit counter beside it is an atomic so a hit never takes
	// mu; Stats() folds it back into the snapshot.
	cache     map[string]cacheEntry
	cacheHits atomic.Int64

	// store is the optional cross-campaign result store (store.go):
	// consulted on a memo-cache miss before measuring, published back on
	// every successful episode. Its counters are in stats.
	store       *store.Store
	storePrefix string

	mu sync.Mutex

	// journal replay/recording state (journal.go). unsynced counts records
	// appended since the last journal sync; queued holds the store
	// publishes waiting for the next sync, which covers their records.
	replay   map[string][]journal.Episode
	replayed int
	unsynced int
	queued   []storePut

	best    float64
	bestSet space.Setting
	traj    []Point

	// stats is the run's one tally: the spend and every counter but the
	// cache hits and the journal's directory-sync failures, which
	// statsLocked folds in.
	stats Stats
	spans map[string]*Span
	order []string // span first-use order
}

// New wraps obj in a fresh engine.
func New(obj sim.Objective, opts ...Option) *Engine {
	e := &Engine{
		obj:   obj,
		best:  -1,
		cache: map[string]cacheEntry{},
		spans: map[string]*Span{},
		clock: time.Now, // value use: the sanctioned wall-clock seam (see Clock)
	}
	for _, o := range opts {
		o(e)
	}
	if e.jr != nil {
		e.initReplay()
	}
	return e
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

// Measure implements sim.Objective: cache lookup, then the run-context and
// budget gates, then one measurement episode against the inner objective.
// It is MeasureCtx without a run context.
func (e *Engine) Measure(s space.Setting) (float64, error) {
	return e.MeasureCtx(context.Background(), s)
}

// budgetRefuses is the budget gate for an uncached setting: it reports
// whether the budget is spent and counts the refusal as a budget trip.
func (e *Engine) budgetRefuses() bool {
	if e.budgetS <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stats.SpentS < e.budgetS {
		return false
	}
	e.stats.BudgetTrips++
	return true
}

// Exhausted reports whether the budget has been spent; tuners poll this as
// their stop function.
func (e *Engine) Exhausted() bool {
	if e.budgetS <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats.SpentS >= e.budgetS
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

// statsLocked folds the atomic cache-hit counter into the tally. Callers
// hold e.mu. While a run is measuring the fold is a point-in-time sum; once
// it returns, every counter is the run's exact count, which is what the
// determinism goldens compare.
func (e *Engine) statsLocked() Stats {
	st := e.stats
	st.CacheHits = int(e.cacheHits.Load())
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
