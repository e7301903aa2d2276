package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
)

// testSpec is a small, fast campaign: random search on helmholtz/a100 with
// a 16-sample dataset and a few virtual seconds of budget.
func testSpec(tenant string, seed int64) Spec {
	return Spec{
		Tenant:      tenant,
		Method:      "opentuner",
		Stencil:     "helmholtz",
		Arch:        "a100",
		DatasetSize: 16,
		BudgetS:     4,
		Seed:        seed,
	}
}

func openTestRegistry(t *testing.T, dir string, opts Options) *Registry {
	t.Helper()
	reg, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := reg.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return reg
}

// waitState polls until the campaign reaches want (or any terminal state if
// want is terminal and the campaign lands elsewhere — reported as a fatal).
func waitState(t *testing.T, reg *Registry, id string, want State) {
	t.Helper()
	c, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		s := c.State()
		if s == want {
			return
		}
		if s.Terminal() {
			t.Fatalf("campaign %s landed in %s (reason %q), want %s", id, s, c.lc.Reason(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s stuck in %s, want %s", id, c.State(), want)
}

// goldenCanonical runs spec uninterrupted in its own registry and returns
// the canonical result string.
func goldenCanonical(t *testing.T, spec Spec) string {
	t.Helper()
	reg := openTestRegistry(t, t.TempDir(), Options{Slots: 2})
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StateCompleted)
	_, canonical, ok := c.Result()
	if !ok || canonical == "" {
		t.Fatal("completed campaign has no canonical result")
	}
	return canonical
}

func TestRegistrySubmitToCompletionDeterministic(t *testing.T) {
	spec := testSpec("acme", 1)
	first := goldenCanonical(t, spec)
	second := goldenCanonical(t, spec)
	if first != second {
		t.Fatalf("same spec, different canonicals:\n%s\n%s", first, second)
	}
}

func TestRegistryRestartResumesInterrupted(t *testing.T) {
	spec := testSpec("acme", 2)
	spec.BudgetS = 400 // ~100ms of wall time: room to interrupt mid-run
	golden := goldenCanonical(t, spec)

	dir := t.TempDir()
	reg, err := Open(dir, Options{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := c.ID
	// Let some episodes reach the journal: each accounted evaluation was
	// journaled before it was accounted.
	for deadline := time.Now().Add(30 * time.Second); c.Status().Evals == 0 && !c.State().Terminal(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("campaign never measured")
		}
	}
	// Simulated crash: Close cancels runners without any state transition,
	// exactly like process death after the last journal write.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	// Read after Close: a campaign still Running was cut mid-run, while one
	// that completed first proves nothing about replay.
	interrupted := c.State() == StateRunning

	reg2 := openTestRegistry(t, dir, Options{Slots: 1})
	c2, err := reg2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg2, id, StateCompleted)
	st := c2.Status()
	if interrupted && st.Replayed == 0 {
		t.Error("interrupted campaign resumed without replaying any journaled episode")
	}
	_, canonical, ok := c2.Result()
	if !ok {
		t.Fatal("resumed campaign has no result")
	}
	if canonical != golden {
		t.Fatalf("resumed canonical differs from uninterrupted run:\n%s\n%s", canonical, golden)
	}
	checkInvariant(t, reg2.Ledgers())
}

func TestRegistryPauseResume(t *testing.T) {
	spec := testSpec("acme", 3)
	spec.BudgetS = 400
	golden := goldenCanonical(t, spec)

	root := t.TempDir()
	reg := openTestRegistry(t, root, Options{Slots: 1})
	// Hold the only measurement slot: the campaign cannot complete before
	// the pause lands.
	if err := reg.Scheduler().Acquire(context.Background(), "holder", 1); err != nil {
		t.Fatal(err)
	}
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StateRunning)
	if err := reg.Pause(c.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StatePaused)
	reg.Scheduler().Release()
	if err := reg.ResumeCampaign(c.ID); err != nil {
		t.Fatal(err)
	}
	// Resuming from pause is written before ResumeCampaign returns: a
	// Paused state.json would bring the campaign back paused after a crash.
	var ps persistedState
	if err := readJSON(nil, filepath.Join(root, c.ID, "state.json"), &ps); err != nil || ps.State == StatePaused {
		t.Fatalf("state.json after resume: %v, %v", ps.State, err)
	}
	waitState(t, reg, c.ID, StateCompleted)
	_, canonical, _ := c.Result()
	if canonical != golden {
		t.Fatalf("pause/resume changed the result:\n%s\n%s", canonical, golden)
	}
	// Resuming a completed campaign is an illegal transition.
	if err := reg.ResumeCampaign(c.ID); !errors.Is(err, ErrTransition) {
		t.Fatalf("resume of completed campaign: got %v, want ErrTransition", err)
	}
}

// TestRegistryResumesSpecWithRetiredWorkersField reopens a campaign whose
// spec.json still carries the retired "workers", "checkpoint_every",
// "repeats" and "quarantine" knobs. The unknown fields are ignored on load,
// so the campaign resumes and completes to the same canonical result as a
// fresh run of the spec.
func TestRegistryResumesSpecWithRetiredWorkersField(t *testing.T) {
	spec := testSpec("acme", 9)
	golden := goldenCanonical(t, spec)

	dir := t.TempDir()
	reg, err := Open(dir, Options{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only slot so the campaign is still running when the
	// registry closes, as after a process death.
	if err := reg.Scheduler().Acquire(context.Background(), "holder", 1); err != nil {
		t.Fatal(err)
	}
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := c.ID
	waitState(t, reg, id, StateRunning)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, id, "spec.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["workers"] = 4
	fields["checkpoint_every"] = 5
	fields["repeats"] = 3
	fields["quarantine"] = 1
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := openTestRegistry(t, dir, Options{Slots: 1})
	waitState(t, reg2, id, StateCompleted)
	c2, err := reg2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, canonical, _ := c2.Result(); canonical != golden {
		t.Fatalf("resumed canonical differs from a fresh run:\n%s\n%s", canonical, golden)
	}
}

func TestRegistryCancelAndDoubleCancel(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{Slots: 1})
	// Hold the only measurement slot: the campaign cannot get past its
	// first live measurement, so the cancel always lands while it runs.
	if err := reg.Scheduler().Acquire(context.Background(), "holder", 1); err != nil {
		t.Fatal(err)
	}
	defer reg.Scheduler().Release()
	spec := testSpec("acme", 4)
	spec.BudgetS = 50
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StateRunning)
	if err := reg.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StateCanceled)
	if err := reg.Cancel(c.ID); !errors.Is(err, ErrTransition) {
		t.Fatalf("double cancel: got %v, want ErrTransition", err)
	}
	checkInvariant(t, reg.Ledgers())
}

func TestRegistryCancelPending(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{Slots: 1, DisableAutostart: true})
	c, err := reg.Submit(testSpec("acme", 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.State(); got != StatePending {
		t.Fatalf("autostart disabled but campaign is %s", got)
	}
	if err := reg.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	if got := c.State(); got != StateCanceled {
		t.Fatalf("state %s, want canceled", got)
	}
	// The reservation must be fully refunded.
	snap := reg.Ledgers().Snapshot("acme")
	if snap.ReservedS != 0 || snap.SpentS != 0 {
		t.Fatalf("cancelled pending campaign left ledger %+v", snap)
	}
}

func TestRegistryUnknownCampaign(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{})
	if _, err := reg.Get("c999999"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("got %v, want ErrUnknownCampaign", err)
	}
	if err := reg.Cancel("nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("got %v, want ErrUnknownCampaign", err)
	}
}

func TestRegistryTenantAdmissionControl(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{TenantBudgetS: 10, DisableAutostart: true})
	spec := testSpec("budgeted", 6) // BudgetS 4
	if _, err := reg.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Submit(spec); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("third campaign should exhaust the tenant budget, got %v", err)
	}
	// Another tenant is unaffected.
	other := testSpec("other", 6)
	if _, err := reg.Submit(other); err != nil {
		t.Fatalf("tenant isolation broken: %v", err)
	}
	checkInvariant(t, reg.Ledgers())
}

func TestRegistryValidationErrors(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{DisableAutostart: true})
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no-tenant", func(s *Spec) { s.Tenant = "" }},
		{"bad-method", func(s *Spec) { s.Method = "simulated-annealing" }},
		{"bad-stencil", func(s *Spec) { s.Stencil = "heat9000" }},
		{"bad-arch", func(s *Spec) { s.Arch = "h100" }},
		{"no-budget", func(s *Spec) { s.BudgetS = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("acme", 1)
			tc.mut(&spec)
			if _, err := reg.Submit(spec); err == nil {
				t.Fatal("invalid spec admitted")
			}
		})
	}
}

// TestRegistryStartupHygiene is the quarantine table: a campaign directory
// whose journal is corrupt or from a different fingerprint must come up
// Failed with the journal renamed to .bad — and must not stop sibling
// campaigns from loading.
func TestRegistryStartupHygiene(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string, spec *Spec)
		wantBad bool
	}{
		{
			name: "corrupt-journal",
			corrupt: func(t *testing.T, dir string, spec *Spec) {
				if err := os.WriteFile(filepath.Join(dir, "journal.wal"), []byte("not a journal at all"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantBad: true,
		},
		{
			name: "fingerprint-mismatch",
			corrupt: func(t *testing.T, dir string, spec *Spec) {
				jr, err := journal.OpenOrCreate(filepath.Join(dir, "journal.wal"), "someone-else-entirely|v1")
				if err != nil {
					t.Fatal(err)
				}
				if err := jr.Close(); err != nil {
					t.Fatal(err)
				}
				spec.Fingerprint = "the-expected-campaign|v1"
			},
			wantBad: true,
		},
		{
			name: "unreadable-spec",
			corrupt: func(t *testing.T, dir string, spec *Spec) {
				if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte("{truncated"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantBad: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "c000001")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			spec := testSpec("acme", 7)
			c := &Campaign{ID: "c000001", Spec: spec, dir: dir, lc: NewLifecycle(nil)}
			if err := c.lc.To(StateRunning, ""); err != nil {
				t.Fatal(err)
			}
			if err := c.persistSpec(); err != nil {
				t.Fatal(err)
			}
			if err := c.persistState(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir, &c.Spec)
			if err := c.persistSpec(); err != nil { // corrupt may have set Fingerprint
				t.Fatal(err)
			}
			if tc.name == "unreadable-spec" { // re-corrupt after the persist above
				tc.corrupt(t, dir, &c.Spec)
			}

			// A healthy sibling proves one bad campaign never aborts the scan.
			sib := &Campaign{ID: "c000002", Spec: testSpec("acme", 8), dir: filepath.Join(root, "c000002"), lc: NewLifecycle(nil)}
			if err := os.MkdirAll(sib.dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := sib.persistSpec(); err != nil {
				t.Fatal(err)
			}
			if err := sib.persistState(); err != nil {
				t.Fatal(err)
			}

			reg := openTestRegistry(t, root, Options{DisableAutostart: true})
			bad, err := reg.Get("c000001")
			if err != nil {
				t.Fatal(err)
			}
			if bad.State() != StateFailed {
				t.Fatalf("bad campaign state %s, want failed", bad.State())
			}
			if bad.lc.Reason() == "" {
				t.Fatal("quarantine reason not recorded")
			}
			if tc.wantBad {
				if _, err := os.Stat(filepath.Join(dir, "journal.wal.bad")); err != nil {
					t.Fatalf("journal not renamed to .bad: %v", err)
				}
				if _, err := os.Stat(filepath.Join(dir, "journal.wal")); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("original journal still present: %v", err)
				}
			}
			// The persisted state must agree after a second restart.
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			reg2 := openTestRegistry(t, root, Options{DisableAutostart: true})
			bad2, err := reg2.Get("c000001")
			if err != nil {
				t.Fatal(err)
			}
			if bad2.State() != StateFailed {
				t.Fatalf("state after second restart %s, want failed", bad2.State())
			}
			if sib2, err := reg2.Get("c000002"); err != nil || sib2.State() != StatePending {
				t.Fatalf("healthy sibling did not survive the scan: %v (state %v)", err, sib2.State())
			}
		})
	}
}

func TestRegistryListFiltersByTenant(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{DisableAutostart: true})
	for i, tenant := range []string{"a", "b", "a", "c"} {
		if _, err := reg.Submit(testSpec(tenant, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(reg.List("")); got != 4 {
		t.Fatalf("unfiltered list has %d campaigns, want 4", got)
	}
	got := reg.List("a")
	if len(got) != 2 {
		t.Fatalf("tenant a list has %d campaigns, want 2", len(got))
	}
	for _, st := range got {
		if st.Tenant != "a" {
			t.Fatalf("tenant filter leaked %q", st.Tenant)
		}
	}
}

func TestRegistrySubmitAfterCloseRefused(t *testing.T) {
	reg, err := Open(t.TempDir(), Options{DisableAutostart: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Submit(testSpec("acme", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestRegistryRestartClassifiesOnDiskState opens a root holding one
// campaign per pair of on-disk state.json and journal, all of one spec,
// and checks how Open classifies each before anything runs. A Pending
// campaign with a journal was running when its process died: the registry
// does not write the Pending → Running transition. Every resumable
// campaign then completes to the spec's uninterrupted result.
func TestRegistryRestartClassifiesOnDiskState(t *testing.T) {
	spec := testSpec("acme", 11)
	spec.BudgetS = 40
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// One uninterrupted run provides the golden result and the files the
	// rows are built from; half its journal is a mid-run kill point, whose
	// torn tail Open truncates.
	goldRoot := t.TempDir()
	gold := openTestRegistry(t, goldRoot, Options{Slots: 1})
	gc, err := gold.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, gold, gc.ID, StateCompleted)
	if err := gold.Close(); err != nil {
		t.Fatal(err)
	}
	_, golden, _ := gc.Result()
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(goldRoot, gc.ID, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	goldSpec, goldJournal := read("spec.json"), read("journal.wal")
	killed := goldJournal[:len(goldJournal)/2]

	const interrupted = "interrupted by process death; queued for deterministic resume"
	rows := []struct {
		name    string
		path    []State // transitions from Pending to the on-disk state
		journal []byte  // nil: no journal.wal
		state   State   // after Open
		last    Transition
	}{
		{"pending-no-journal", nil, nil, StatePending, Transition{To: StatePending}},
		{"pending-journal", nil, killed, StatePending, Transition{From: StateRunning, To: StatePending, Reason: interrupted}},
		{"running-journal", []State{StateRunning}, killed, StatePending, Transition{From: StateRunning, To: StatePending, Reason: interrupted}},
		{"paused-journal", []State{StateRunning, StatePaused}, killed, StatePaused, Transition{From: StateRunning, To: StatePaused}},
		{"completed", nil, goldJournal, StateCompleted, Transition{From: StateRunning, To: StateCompleted}},
	}
	root := t.TempDir()
	for i, row := range rows {
		dir := filepath.Join(root, fmt.Sprintf("c%06d", i+1))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{"spec.json": goldSpec, "journal.wal": row.journal}
		if row.journal == nil {
			// Never started: no fingerprint yet either.
			c := &Campaign{Spec: spec, dir: dir}
			if err := c.persistSpec(); err != nil {
				t.Fatal(err)
			}
			delete(files, "spec.json")
		}
		if row.state == StateCompleted {
			files["state.json"], files["result.json"] = read("state.json"), read("result.json")
		} else {
			c := &Campaign{dir: dir, lc: NewLifecycle(nil)}
			for _, s := range row.path {
				if err := c.lc.To(s, ""); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.persistState(); err != nil {
				t.Fatal(err)
			}
		}
		for name, data := range files {
			if data == nil {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	reg := openTestRegistry(t, root, Options{Slots: 2, DisableAutostart: true})
	camps := make([]*Campaign, len(rows))
	for i, row := range rows {
		c, err := reg.Get(fmt.Sprintf("c%06d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		camps[i] = c
		hist := c.Status().History
		last := hist[len(hist)-1]
		last.AtUnixNano = 0
		if c.State() != row.state || last != row.last {
			t.Errorf("%s: loaded as %s, last transition %+v; want %s, %+v", row.name, c.State(), last, row.state, row.last)
		}
	}
	if _, canonical, ok := camps[4].Result(); !ok || canonical != golden {
		t.Errorf("completed: result not restored (ok %v)", ok)
	}
	if t.Failed() {
		return
	}

	reg.StartPending()
	if err := reg.ResumeCampaign(camps[3].ID); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		c := camps[i]
		waitState(t, reg, c.ID, StateCompleted)
		st := c.Status()
		if st.Canonical != golden {
			t.Errorf("%s: canonical differs from the uninterrupted run:\n%s\n%s", row.name, st.Canonical, golden)
		}
		if row.journal != nil && row.state != StateCompleted && st.Replayed == 0 {
			t.Errorf("%s: resumed without replaying its journal", row.name)
		}
	}
}
