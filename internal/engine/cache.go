package engine

import (
	"repro/internal/sim"
)

// This file is the engine's memo store: an internal/stripe Map from setting
// key to *cacheEntry, which serves hits without taking any lock (DESIGN.md
// §12). Hits are lock-free reads of atomically published immutable entries
// and never touch Engine.mu.
//
// Entries are write-once-per-field and merged, never mutated in place: a
// published *cacheEntry is immutable. The same key may carry a measured time
// (Measure), a cached permanent error, and a full metric result (Run); the
// two views below preserve the historical lookup precedence of the separate
// maps (Measure: time before error; Run: result before error, a bare time
// is not a Run hit).
//
// The cache carries no accounting state. Budget, counters, trajectory and
// quarantine are updated under Engine.mu; the cache only memoizes outcomes
// those decisions already produced.

// The engine's accounting mutex always nests outside the shard locks:
// accountEpisode publishes to the cache while holding Engine.mu, and no Map
// method ever calls back into the engine. measureCtxSlow re-checks the
// cache under the singleflight lock, which nests that one outside as well.
//
//cstlint:lockorder engine.mu < shard.mu
//cstlint:lockorder engine.sfMu < shard.mu

// cacheEntry is one immutable published outcome for a setting key.
type cacheEntry struct {
	ms      float64
	hasTime bool
	err     error
	res     *sim.Result
}

// measureView projects a cache probe onto the Measure result surface,
// preserving the historical map precedence: a cached time wins over a
// cached error.
func measureView(e *cacheEntry, ok bool) (float64, error, bool) {
	switch {
	case !ok:
	case e.hasTime:
		return e.ms, nil, true
	case e.err != nil:
		return 0, e.err, true
	}
	return 0, nil, false
}

// runView projects a cache probe onto the Run surface: a stored metric
// result, else a cached error. A bare measured time is not a Run hit (Run
// needs the full metrics).
func runView(e *cacheEntry, ok bool) (*sim.Result, error, bool) {
	switch {
	case !ok:
	case e.res != nil:
		return e.res, nil, true
	case e.err != nil:
		return nil, e.err, true
	}
	return nil, nil, false
}

// merge returns the stripe.Map.Update closure that publishes a copy of a
// key's entry with set applied: a Run result lands beside an already-cached
// time, and previously returned entries stay immutable.
func merge(set func(*cacheEntry)) func(*cacheEntry, bool) (*cacheEntry, bool) {
	return func(old *cacheEntry, ok bool) (*cacheEntry, bool) {
		var e cacheEntry
		if ok {
			e = *old
		}
		set(&e)
		return &e, true
	}
}

// withTime publishes a successful measurement.
func withTime(ms float64) func(*cacheEntry, bool) (*cacheEntry, bool) {
	return merge(func(e *cacheEntry) { e.ms, e.hasTime = ms, true })
}

// withErr publishes a cached (permanent) measurement error.
func withErr(err error) func(*cacheEntry, bool) (*cacheEntry, bool) {
	return merge(func(e *cacheEntry) { e.err = err })
}

// withRun publishes an offline collection result, pre-warming the Measure
// view with its time (historical Run behaviour).
func withRun(res *sim.Result) func(*cacheEntry, bool) (*cacheEntry, bool) {
	return merge(func(e *cacheEntry) { e.res, e.ms, e.hasTime = res, res.TimeMS, true })
}
