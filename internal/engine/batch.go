package engine

import (
	"context"
	"errors"
	"sync"

	"repro/internal/deque"
	"repro/internal/sim"
	"repro/internal/space"
)

// ErrNoRunner is returned by Run/RunBatch when the inner objective offers
// only Measure — it cannot produce the metric reports dataset collection
// needs.
var ErrNoRunner = errors.New("engine: objective cannot produce metric reports")

// Runner is the optional metric-producing surface an objective can
// implement (the simulator and the GEMM/CPU/temporal workloads all do):
// Run returns the full simulated result — time plus Nsight-style metrics —
// that offline dataset collection stores.
type Runner interface {
	Run(s space.Setting) (*sim.Result, error)
	Space() *space.Space
}

// BatchResult is one MeasureBatch outcome; Err is nil exactly when the
// setting was measured (or served from cache) successfully.
type BatchResult struct {
	MS  float64
	Err error
}

// MeasureBatch measures many settings through the bounded worker pool and
// returns results in input order. Accounting (budget, counters, best
// tracking, trajectory) is applied sequentially in input order after the
// parallel phase, so a batched run is byte-identical to measuring the
// settings one by one — regardless of worker count or scheduling. Settings
// whose sequential position falls past the budget return ErrBudget (their
// speculative measurement is discarded; the simulated objective is cheap).
func (e *Engine) MeasureBatch(settings []space.Setting) []BatchResult {
	return e.MeasureBatchCtx(context.Background(), settings)
}

// MeasureBatchCtx is the context-aware MeasureBatch. Measurement episodes
// (including their retry loops) run in the parallel phase and touch no
// accounting state; every fault, retry and backoff decision is a pure
// function of (engine seed, setting key, attempt), so the batch outcome —
// results, stats, trajectory and quarantine set — is identical at any
// worker count. On cancellation the settings not yet accounted return the
// context's error.
func (e *Engine) MeasureBatchCtx(ctx context.Context, settings []space.Setting) []BatchResult {
	out := make([]BatchResult, len(settings))
	if len(settings) == 0 {
		return out
	}

	// Phase 1: resolve a full measurement episode for every key not already
	// cached or quarantined, in parallel, without touching accounting state.
	keys := make([]string, len(settings))
	need := make([]int, 0, len(settings)) // first input index per missing key
	seen := map[string]struct{}{}
	for i, s := range settings {
		keys[i] = s.Key()
		if _, dup := seen[keys[i]]; dup {
			continue
		}
		seen[keys[i]] = struct{}{}
		// Lock-free cache probe first: the common duplicate-heavy batch never
		// touches a mutex for its already-measured keys. Hits are not counted
		// here — phase 2 serves (and counts) them in input order.
		if _, _, hit := measureView(e.cache.Load(keys[i])); hit {
			continue // noCache engines never publish, so they never hit here
		}
		if e.quarantined(keys[i], false) {
			continue // refusal is served (and counted) in phase 2
		}
		need = append(need, i)
	}
	eps := make(map[string]episode, len(need))
	var epMu sync.Mutex
	e.forEach(len(need), func(k int) {
		i := need[k]
		ep := e.measureEpisode(ctx, settings[i], keys[i])
		epMu.Lock()
		eps[keys[i]] = ep
		epMu.Unlock()
	})

	// Phase 2: sequential accounting in input order. Duplicate settings in
	// one batch hit the cache entry their first occurrence stored.
	for i, s := range settings {
		if ms, err, ok := e.lookup(keys[i]); ok {
			out[i] = BatchResult{MS: ms, Err: err}
			continue
		}
		if e.quarantined(keys[i], true) {
			out[i] = BatchResult{Err: ErrQuarantined}
			continue
		}
		if err := ctx.Err(); err != nil {
			e.mu.Lock()
			e.stats.Canceled++
			e.mu.Unlock()
			out[i] = BatchResult{Err: err}
			continue
		}
		if e.exhausted(true) {
			out[i] = BatchResult{Err: ErrBudget}
			continue
		}
		ep, ok := eps[keys[i]]
		if !ok { // noCache or uncached-error duplicate: run a fresh episode
			ep = e.measureEpisode(ctx, s, keys[i])
		}
		ms, err := e.accountEpisode(s, keys[i], ep)
		out[i] = BatchResult{MS: ms, Err: err}
	}
	return out
}

// CanCollect reports whether the inner objective can produce the metric
// reports offline dataset collection needs.
func (e *Engine) CanCollect() bool {
	_, ok := e.obj.(Runner)
	return ok
}

// Run implements Runner by forwarding to the inner objective. Collection is
// an offline step (paper Sec. V-F): it is neither charged to the virtual
// budget nor counted as an evaluation, but successful results pre-warm the
// measurement cache so the search re-probes dataset settings for free.
func (e *Engine) Run(s space.Setting) (*sim.Result, error) {
	r, ok := e.obj.(Runner)
	if !ok {
		return nil, ErrNoRunner
	}
	key := s.Key()
	if !e.noCache {
		if res, err, ok := runView(e.cache.Load(key)); ok {
			e.cacheHits.Add(1)
			return res, err
		}
	}
	res, err := r.Run(s)
	if e.noCache {
		return res, err
	}
	if err != nil {
		if !errors.Is(err, ErrBudget) {
			e.cache.Update(key, withErr(err))
		}
		return nil, err
	}
	e.cache.Update(key, withRun(res))
	return res, nil
}

// RunBatch runs many settings through the worker pool, preserving input
// order. Like Run it is unmetered: dataset collection is offline work.
func (e *Engine) RunBatch(settings []space.Setting) ([]*sim.Result, []error) {
	res := make([]*sim.Result, len(settings))
	errs := make([]error, len(settings))
	e.forEach(len(settings), func(i int) {
		res[i], errs[i] = e.Run(settings[i])
	})
	return res, errs
}

// forEach runs f(0..n-1) on the bounded worker pool with work stealing:
// every worker is seeded with a contiguous chunk of indices in its own
// deque, drains it front-to-back, and when empty steals single items from
// the back of its neighbours' queues. Compared to the former shared-channel
// dispatch this removes the one-item-at-a-time rendezvous on the hot path
// (a worker's own pops contend only with occasional thieves) while still
// balancing skewed batches — a worker stuck on a slow measurement episode
// has its remaining chunk drained by the others.
//
// Scheduling freedom is safe here by construction: f must touch no
// accounting state (episodes are pure functions of seed, key and attempt),
// so which worker runs which index can never affect results.
func (e *Engine) forEach(n int, f func(i int)) {
	if n == 0 {
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	queues := make([]*deque.Stealable[int], workers)
	for w := range queues {
		lo, hi := w*n/workers, (w+1)*n/workers
		q := deque.NewStealable[int](hi - lo)
		for i := lo; i < hi; i++ {
			q.Push(i)
		}
		queues[w] = q
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(self int) {
			defer wg.Done()
			for {
				i, ok := queues[self].PopFront()
				if !ok {
					for off := 1; off < len(queues) && !ok; off++ {
						i, ok = queues[(self+off)%len(queues)].StealBack()
					}
					if !ok {
						// No work is ever queued after seeding, so one empty
						// sweep over every queue means the pool is drained.
						return
					}
				}
				f(i)
			}
		}(w)
	}
	wg.Wait()
}
