package engine

import (
	"sync"
	"time"
)

// Clock is the engine's injectable wall-clock source: the single sanctioned
// seam through which engine- and pipeline-level code reads real time. Every
// wall-clock read that can reach a report (timing spans, the overhead
// breakdown, journal checkpoint stamps) goes through the engine's clock, so
//
//   - tests drive spans by installing a fake clock (see Now for a tune's), and
//   - the nodeterm static analyzer can ban raw time.Now/time.Since calls in
//     result-affecting packages outright: referencing time.Now as a *value*
//     (to install it as the default Clock) is the one sanctioned pattern.
//
// The wall clock never feeds accounting — budgets, trajectories and results
// run on the virtual clock (SpentS) — so Clock affects observability only.
type Clock func() time.Time

// WithClock installs clock as the engine's wall-clock source; nil keeps the
// default (the real time.Now).
func WithClock(c Clock) Option {
	return func(e *Engine) {
		if c != nil {
			e.clock = c
		}
	}
}

// Now reads the engine's wall clock. Pipeline stages use it (instead of raw
// time.Now) for the Overhead breakdown and their spans. A tune reads it
// from two goroutines at once, since the pool draw and codegen time
// themselves beside the tuning goroutine, so a Clock must be safe for
// concurrent use, as time.Now and FakeClock are. A fake clock therefore
// does not reproduce a tune's stage times byte for byte: which goroutine
// takes which tick depends on the schedule. No result depends on them.
func (e *Engine) Now() time.Time { return e.clock() }

// FakeClock returns a deterministic Clock that advances by step on every
// read, starting one step after the zero time, plus a function reporting how
// many reads happened. Tests install it with WithClock to pin spans and
// overhead numbers exactly.
func FakeClock(step time.Duration) (Clock, func() int) {
	var mu sync.Mutex
	reads := 0
	return func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			reads++
			return time.Time{}.Add(time.Duration(reads) * step)
		}, func() int {
			mu.Lock()
			defer mu.Unlock()
			return reads
		}
}
