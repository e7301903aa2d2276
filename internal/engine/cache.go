package engine

import (
	"repro/internal/sim"
)

// This file is the engine's memo store: a plain map from setting key to
// cacheEntry (DESIGN.md §12). Only the goroutine that measures reads or
// writes it — Measure, MeasureCtx, Run and the accounting they drive — so
// it needs no lock, and entries are updated in place.
//
// The same key may carry a measured time (Measure), a cached permanent
// error, and a full metric result (Run); the two views below preserve the
// historical lookup precedence of the separate maps (Measure: time before
// error; Run: result before error, a bare time is not a Run hit).
//
// The cache carries no accounting state. Budget, counters, trajectory and
// quarantine are updated under Engine.mu; the cache only memoizes outcomes
// those decisions already produced.

// cacheEntry is one key's memoized outcomes.
type cacheEntry struct {
	ms      float64
	hasTime bool
	err     error
	res     *sim.Result
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

// runView projects a key's entry onto the Run surface: a stored metric
// result, else a cached error. A bare measured time is not a Run hit (Run
// needs the full metrics).
func runView(e cacheEntry) (*sim.Result, error, bool) {
	switch {
	case e.res != nil:
		return e.res, nil, true
	case e.err != nil:
		return nil, e.err, true
	}
	return nil, nil, false
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
