package engine

// This file is the engine's memo store: a plain map from setting key to
// cacheEntry (DESIGN.md §12). Only the goroutine that measures reads or
// writes it — Measure, MeasureCtx, Run and the accounting they drive — so
// it needs no lock, and entries are updated in place.
//
// The same key may carry a measured time (Measure or Run) and a cached
// permanent error; measureView serves a cached time before an error. Run
// serves only a cached error: dataset collection never runs a setting it
// already kept, so a result cached for Run would never be served.
//
// The cache carries no accounting state. Budget, counters and trajectory
// are updated under Engine.mu; the cache only memoizes outcomes those
// decisions already produced.

// cacheEntry is one key's memoized outcomes.
type cacheEntry struct {
	ms      float64
	hasTime bool
	err     error
}

// measureView projects a key's entry onto the Measure result surface,
// preserving the historical map precedence: a cached time wins over a
// cached error. The zero entry, which a map miss yields, is no hit.
func measureView(e cacheEntry) (float64, error, bool) {
	switch {
	case e.hasTime:
		return e.ms, nil, true
	case e.err != nil:
		return 0, e.err, true
	}
	return 0, nil, false
}

// cacheTime memoizes a successful measurement of key.
func (e *Engine) cacheTime(key string, ms float64) {
	c := e.cache[key]
	c.ms, c.hasTime = ms, true
	e.cache[key] = c
}

// cacheErr memoizes a permanent measurement error for key.
func (e *Engine) cacheErr(key string, err error) {
	c := e.cache[key]
	c.err = err
	e.cache[key] = c
}
