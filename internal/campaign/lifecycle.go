// Package campaign turns the single-shot tuning library into a long-running
// multi-tenant campaign service substrate: an explicit lifecycle state
// machine (extracted from the previously ad-hoc harness.RunCampaign flow), a
// registry that keeps each campaign in one append-only journal file and
// survives kill -9 by deterministically resuming interrupted campaigns
// through the journal replay path, per-tenant virtual-budget ledgers, and a
// weighted-fair scheduler that interleaves measurement work across every
// active campaign instead of running them FIFO. internal/service fronts
// this package with HTTP; cmd/cstunerd is the daemon.
package campaign

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
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
	StatePaused:  {StateRunning: true, StateCanceled: true, StateFailed: true},
}

// ErrTransition is returned for an illegal lifecycle transition (e.g.
// cancelling an already-terminal campaign).
var ErrTransition = errors.New("campaign: illegal lifecycle transition")

// Transition is one recorded lifecycle edge with its wall-clock stamp (read
// through the injected engine.Clock, so tests pin it exactly).
type Transition struct {
	From       State  `json:"from"`
	To         State  `json:"to"`
	AtUnixNano int64  `json:"at_unix_nano"`
	Reason     string `json:"reason,omitempty"`
}

// Lifecycle is one campaign's state machine: current state, the reason it
// got there, and the full stamped transition history. It is safe for
// concurrent use.
type Lifecycle struct {
	mu    sync.Mutex
	clock engine.Clock
	state State
	hist  []Transition
}

// NewLifecycle returns a lifecycle in StatePending, stamped by clock.
func NewLifecycle(clock engine.Clock) *Lifecycle {
	l := &Lifecycle{clock: clock, state: StatePending}
	l.hist = append(l.hist, Transition{From: "", To: StatePending, AtUnixNano: clock().UnixNano()})
	return l
}

// RestoreLifecycle rebuilds a lifecycle from persisted state: the recorded
// history is kept verbatim and the current state trusted, except for a
// campaign whose owning process died mid-run. That campaign is restored as
// StatePending (the registry re-runs it through journal replay) with the
// restoration stamped into the history. It is a persisted StateRunning, or
// a persisted StatePending whose run had started: the registry does not
// record the Pending → Running transition, and only a run records the
// campaign's fingerprint.
func RestoreLifecycle(clock engine.Clock, state State, hist []Transition, started bool) (*Lifecycle, error) {
	if !state.Valid() {
		return nil, fmt.Errorf("campaign: restore: unknown state %q", state)
	}
	l := &Lifecycle{clock: clock, state: state, hist: append([]Transition(nil), hist...)}
	if state == StateRunning || (state == StatePending && started) {
		l.state = StatePending
		l.hist = append(l.hist, Transition{
			From: StateRunning, To: StatePending,
			AtUnixNano: clock().UnixNano(),
			Reason:     "interrupted by process death; queued for deterministic resume",
		})
	}
	return l, nil
}

// State returns the current state.
func (l *Lifecycle) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Reason returns the reason attached to the most recent transition.
func (l *Lifecycle) Reason() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.hist) == 0 {
		return ""
	}
	return l.hist[len(l.hist)-1].Reason
}

// To transitions to state s, stamping the edge. Illegal transitions return
// ErrTransition (wrapped with the attempted edge) and change nothing.
func (l *Lifecycle) To(s State, reason string) error {
	now := l.clock() // read outside the lock: the clock is an injected callback
	l.mu.Lock()
	defer l.mu.Unlock()
	if !legal[l.state][s] {
		return fmt.Errorf("%w: %s → %s", ErrTransition, l.state, s)
	}
	l.hist = append(l.hist, Transition{From: l.state, To: s, AtUnixNano: now.UnixNano(), Reason: reason})
	l.state = s
	return nil
}

// History returns a copy of the stamped transition history.
func (l *Lifecycle) History() []Transition {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Transition(nil), l.hist...)
}
