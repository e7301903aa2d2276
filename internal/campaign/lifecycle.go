// Package campaign turns the single-shot tuning library into a long-running
// multi-tenant campaign service substrate: an explicit lifecycle state
// machine, a registry that keeps each campaign in one append-only journal
// file and survives kill -9 by deterministically resuming interrupted
// campaigns through the journal replay path, per-tenant virtual-budget
// ledgers, and a weighted-fair scheduler that interleaves measurement work
// across every active campaign instead of running them FIFO.
// internal/service fronts this package with HTTP; cmd/cstunerd is the
// daemon.
package campaign

import (
	"errors"
	"fmt"
	"time"
)

// State is one campaign lifecycle state.
type State string

// The campaign lifecycle:
//
//	Pending ──▶ Running ──▶ Completed
//	   │          │  ▲────┐
//	   │          ├──▶ Paused ──▶ Canceled
//	   │          ├──▶ Failed
//	   │          └──▶ Canceled
//	   └──▶ Canceled / Failed
//
// Completed, Failed and Canceled are terminal. Paused is the deliberate
// crash: the run context is cancelled, the journal keeps every episode
// already paid for, and resuming re-executes the campaign with the journal
// answering for the prefix (byte-identical, per DESIGN.md §6).
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Valid reports whether s is a known lifecycle state.
func (s State) Valid() bool {
	switch s {
	case StatePending, StateRunning, StatePaused, StateCompleted, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// legal is the transition relation; anything absent is refused with
// ErrTransition.
var legal = map[State]map[State]bool{
	StatePending: {StateRunning: true, StateCanceled: true, StateFailed: true},
	StateRunning: {StatePaused: true, StateCompleted: true, StateFailed: true, StateCanceled: true},
	StatePaused:  {StateRunning: true, StateCanceled: true},
}

// ErrTransition is returned for an illegal lifecycle transition (e.g.
// cancelling an already-terminal campaign).
var ErrTransition = errors.New("campaign: illegal lifecycle transition")

// Transition is one recorded lifecycle edge with its wall-clock stamp (read
// through the registry's engine.Clock, so tests pin it exactly).
type Transition struct {
	From       State  `json:"from"`
	To         State  `json:"to"`
	AtUnixNano int64  `json:"at_unix_nano"`
	Reason     string `json:"reason,omitempty"`
}

// pendingSince is the history of a campaign submitted at now: the one edge
// into Pending.
func pendingSince(now time.Time) []Transition {
	return []Transition{{To: StatePending, AtUnixNano: now.UnixNano()}}
}

// toLocked moves c to s, stamping the edge at now, which the registry reads
// from its clock before it takes c.mu. An edge outside legal returns
// ErrTransition, wrapped with the attempted edge, and changes nothing. The
// caller holds c.mu.
func (c *Campaign) toLocked(s State, now time.Time, reason string) error {
	if !legal[c.state][s] {
		return fmt.Errorf("%w: %s → %s", ErrTransition, c.state, s)
	}
	c.hist = append(c.hist, Transition{From: c.state, To: s, AtUnixNano: now.UnixNano(), Reason: reason})
	c.state = s
	return nil
}

// restore sets a loading campaign's lifecycle from its last state record:
// the recorded history is kept verbatim and the state trusted, except for
// a campaign whose owning process died mid-run. That campaign comes back
// Pending, for the registry to re-run through journal replay, with the
// restoration stamped at now. It is a recorded Running, or a recorded
// Pending whose run had started: the registry does not record Pending →
// Running, and only a run records the campaign's fingerprint. An unknown
// state is an error and changes nothing.
func (c *Campaign) restore(st *persistedState, now time.Time) error {
	if !st.State.Valid() {
		return fmt.Errorf("campaign: restore: unknown state %q", st.State)
	}
	c.state, c.hist = st.State, st.Transitions
	if st.State == StateRunning || (st.State == StatePending && c.Spec.Fingerprint != "") {
		c.state = StatePending
		c.hist = append(c.hist, Transition{
			From: StateRunning, To: StatePending,
			AtUnixNano: now.UnixNano(),
			Reason:     "interrupted by process death; queued for deterministic resume",
		})
	}
	return nil
}
