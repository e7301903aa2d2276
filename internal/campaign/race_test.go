//go:build race

package campaign

// raceEnabled reports whether the race detector instruments this build; its
// bookkeeping adds allocations that allocation pins must not count.
const raceEnabled = true
