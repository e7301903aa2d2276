package campaign

import (
	"errors"
	"testing"
	"time"
)

// fakeClock returns a Clock ticking one second per call, so transition
// timestamps are deterministic and strictly increasing.
func fakeClock() func() time.Time {
	var n int64
	return func() time.Time {
		n++
		return time.Unix(n, 0)
	}
}

// submittedAt returns a campaign just submitted, stamped by clock.
func submittedAt(clock func() time.Time) *Campaign {
	return (&Registry{}).newCampaign("c000001", clock())
}

func TestLifecycleTransitions(t *testing.T) {
	cases := []struct {
		name string
		path []State
		ok   bool
	}{
		{"run-complete", []State{StateRunning, StateCompleted}, true},
		{"run-fail", []State{StateRunning, StateFailed}, true},
		{"run-cancel", []State{StateRunning, StateCanceled}, true},
		{"run-pause-run-complete", []State{StateRunning, StatePaused, StateRunning, StateCompleted}, true},
		{"pause-cancel", []State{StateRunning, StatePaused, StateCanceled}, true},
		{"pause-fail", []State{StateRunning, StatePaused, StateFailed}, false},
		{"pending-cancel", []State{StateCanceled}, true},
		{"pending-fail", []State{StateFailed}, true},
		{"pending-complete", []State{StateCompleted}, false},
		{"pending-pause", []State{StatePaused}, false},
		{"double-complete", []State{StateRunning, StateCompleted, StateCompleted}, false},
		{"cancel-then-run", []State{StateCanceled, StateRunning}, false},
		{"complete-then-cancel", []State{StateRunning, StateCompleted, StateCanceled}, false},
		{"fail-then-pause", []State{StateRunning, StateFailed, StatePaused}, false},
		{"run-run", []State{StateRunning, StateRunning}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := fakeClock()
			c := submittedAt(clock)
			var err error
			for _, s := range tc.path {
				if err = c.toLocked(s, clock(), "t"); err != nil {
					break
				}
			}
			if tc.ok && err != nil {
				t.Fatalf("path %v: unexpected %v", tc.path, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("path %v: expected ErrTransition", tc.path)
				}
				if !errors.Is(err, ErrTransition) {
					t.Fatalf("path %v: got %v, want ErrTransition", tc.path, err)
				}
			}
		})
	}
}

func TestLifecycleHistory(t *testing.T) {
	clock := fakeClock()
	c := submittedAt(clock)
	for _, s := range []State{StateRunning, StatePaused, StateRunning, StateCompleted} {
		if err := c.toLocked(s, clock(), "because"); err != nil {
			t.Fatal(err)
		}
	}
	hist := c.Status().History
	if len(hist) != 5 { // initial →pending entry plus four transitions
		t.Fatalf("history length %d, want 5", len(hist))
	}
	var last int64
	for i, tr := range hist {
		if tr.AtUnixNano <= last {
			t.Fatalf("transition %d timestamp %d not increasing past %d", i, tr.AtUnixNano, last)
		}
		last = tr.AtUnixNano
	}
	if hist[0].To != StatePending || hist[4].To != StateCompleted {
		t.Fatalf("history endpoints wrong: %+v", hist)
	}
	if st := c.Status(); !st.State.Terminal() || st.Reason != "because" {
		t.Fatalf("completed lifecycle is %s (%q), want terminal with the last edge's reason", st.State, st.Reason)
	}
	// An illegal edge changes nothing.
	if err := c.toLocked(StateRunning, clock(), "again"); !errors.Is(err, ErrTransition) {
		t.Fatalf("completed → running: got %v, want ErrTransition", err)
	}
	if got := len(c.Status().History); got != 5 {
		t.Fatalf("an illegal edge grew the history to %d", got)
	}
}

// restored loads rec into a freshly submitted campaign, as load does; a
// fingerprint marks a campaign whose run had started.
func restored(t *testing.T, rec *persistedState, fingerprint string) *Campaign {
	t.Helper()
	c := submittedAt(fakeClock())
	c.Spec.Fingerprint = fingerprint
	if err := c.restore(rec, time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRestoreLifecycleMapsRunningToPending(t *testing.T) {
	clock := fakeClock()
	c := submittedAt(clock)
	if err := c.toLocked(StateRunning, clock(), ""); err != nil {
		t.Fatal(err)
	}
	back := restored(t, c.stateRecordLocked(), "fp")
	if st := back.Status(); st.State != StatePending || st.Reason == "" || len(st.History) != 3 {
		t.Fatalf("restored %s (%q) after %d edges, want pending with the interruption recorded (interrupted runs re-queue)",
			st.State, st.Reason, len(st.History))
	}
	// A recorded Pending whose run had started is interrupted too; one
	// that never started comes back as it was.
	pending := submittedAt(clock).stateRecordLocked()
	if st := restored(t, pending, "fp").Status(); st.State != StatePending || st.Reason == "" {
		t.Fatalf("started pending restored %s (%q), want pending with the interruption recorded", st.State, st.Reason)
	}
	if st := restored(t, pending, "").Status(); st.State != StatePending || len(st.History) != 1 {
		t.Fatalf("unstarted pending restored %s after %d edges, want pending as recorded", st.State, len(st.History))
	}
	// Terminal states restore verbatim.
	if err := c.toLocked(StateCompleted, clock(), ""); err != nil {
		t.Fatal(err)
	}
	back = restored(t, c.stateRecordLocked(), "fp")
	if st := back.Status(); st.State != StateCompleted || len(st.History) != 3 {
		t.Fatalf("restored %s after %d edges; want completed as recorded", st.State, len(st.History))
	}
}

func TestRestoreLifecycleRejectsGarbage(t *testing.T) {
	c := submittedAt(fakeClock())
	if err := c.restore(&persistedState{State: "bogus"}, time.Unix(100, 0)); err == nil {
		t.Fatal("bogus state restored without error")
	}
	if st := c.Status(); st.State != StatePending || len(st.History) != 1 {
		t.Fatalf("a refused restore left %s after %d edges, want the campaign as it was", st.State, len(st.History))
	}
}

func TestStateValidity(t *testing.T) {
	for _, s := range []State{StatePending, StateRunning, StatePaused, StateCompleted, StateFailed, StateCanceled} {
		if !s.Valid() {
			t.Errorf("state %s reported invalid", s)
		}
	}
	if State("nope").Valid() {
		t.Error("invalid state reported valid")
	}
	for _, s := range []State{StateCompleted, StateFailed, StateCanceled} {
		if !s.Terminal() {
			t.Errorf("state %s should be terminal", s)
		}
	}
	for _, s := range []State{StatePending, StateRunning, StatePaused} {
		if s.Terminal() {
			t.Errorf("state %s should not be terminal", s)
		}
	}
}
