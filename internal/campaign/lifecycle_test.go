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
			lc := NewLifecycle(fakeClock())
			var err error
			for _, s := range tc.path {
				if err = lc.To(s, "t"); err != nil {
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
	lc := NewLifecycle(fakeClock())
	for _, s := range []State{StateRunning, StatePaused, StateRunning, StateCompleted} {
		if err := lc.To(s, "because"); err != nil {
			t.Fatal(err)
		}
	}
	hist := lc.History()
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
	if !lc.State().Terminal() {
		t.Fatal("completed lifecycle not terminal")
	}
}

func TestRestoreLifecycleMapsRunningToPending(t *testing.T) {
	lc := NewLifecycle(fakeClock())
	if err := lc.To(StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLifecycle(fakeClock(), lc.State(), lc.History(), true)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State() != StatePending {
		t.Fatalf("restored state %s, want pending (interrupted runs re-queue)", restored.State())
	}
	if restored.Reason() == "" {
		t.Fatal("interruption reason not recorded")
	}
	// Terminal states restore verbatim.
	if err := lc.To(StateCompleted, ""); err != nil {
		t.Fatal(err)
	}
	restored, err = RestoreLifecycle(fakeClock(), lc.State(), lc.History(), true)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State() != StateCompleted {
		t.Fatalf("restored state %s, want completed", restored.State())
	}
}

func TestRestoreLifecycleRejectsGarbage(t *testing.T) {
	if _, err := RestoreLifecycle(fakeClock(), State("bogus"), nil, false); err == nil {
		t.Fatal("bogus state restored without error")
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
