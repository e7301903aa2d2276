package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/vfs"
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

// recorded reads the campaign's journal as a restart does and returns the
// last state it records.
func recorded(t *testing.T, root, id string) State {
	t.Helper()
	f, _, err := (&Campaign{dir: filepath.Join(root, id), fs: vfs.OS}).read(nil)
	if err != nil || f.Spec == nil || f.State == nil {
		t.Fatalf("%s records no spec or no state: %+v, %v", id, f, err)
	}
	return f.State.State
}

// writeCampaign writes the directory of campaign id under root by hand: a
// journal with fingerprint fp holding the owner records recs.
func writeCampaign(t *testing.T, root, id, fp string, recs ...any) string {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	jr, err := journal.CreateFS(vfs.OS, filepath.Join(dir, "journal.wal"), fp, recs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "journal.wal")
}

// checkResultRecord requires the journal at path to hold a result record
// whose object has exactly the keys canonical and summary, and no
// structured trajectory anywhere.
func checkResultRecord(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("Trajectory")) {
		t.Errorf("%s holds a structured trajectory", path)
	}
	recs, _, err := journal.Scan(vfs.OS, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, raw := range recs {
		var rec struct {
			Result map[string]json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Result != nil {
			keys = keys[:0]
			for k := range rec.Result {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"canonical", "summary"}) {
		t.Errorf("%s: result record keys %q, want canonical and summary", path, keys)
	}
}

// submitted is the record Submit writes for spec.
func submitted(spec Spec) record {
	return record{Spec: &spec, State: &persistedState{State: StatePending, Transitions: NewLifecycle(time.Now).History()}}
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
	canonical := c.Status().Canonical
	if canonical == "" {
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
	if st.Canonical != golden {
		t.Fatalf("resumed canonical differs from uninterrupted run:\n%s\n%s", st.Canonical, golden)
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
	// Resuming from pause is recorded before ResumeCampaign returns: a
	// recorded Paused would bring the campaign back paused after a crash.
	if got := recorded(t, root, c.ID); got == StatePaused {
		t.Fatalf("recorded state after resume: %s", got)
	}
	waitState(t, reg, c.ID, StateCompleted)
	if canonical := c.Status().Canonical; canonical != golden {
		t.Fatalf("pause/resume changed the result:\n%s\n%s", canonical, golden)
	}
	// Resuming a completed campaign is an illegal transition.
	if err := reg.ResumeCampaign(c.ID); !errors.Is(err, ErrTransition) {
		t.Fatalf("resume of completed campaign: got %v, want ErrTransition", err)
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

// TestRegistryStartupHygiene is the containment table: a campaign whose
// journal cannot be trusted comes up Failed with the reason, on this
// restart and the next, with its bytes left on disk for post-mortem — and
// it never stops a sibling campaign from loading. A header or spec that
// cannot be read fails the campaign at load, on every restart; a
// fingerprint mismatch fails it at run start, and that Failed is recorded.
func TestRegistryStartupHygiene(t *testing.T) {
	spec := testSpec("acme", 7)
	cases := []struct {
		name   string
		write  func(t *testing.T, root string) string // writes c000001, returns its journal path
		atRun  bool
		reason string
	}{
		{
			name: "corrupt-journal",
			write: func(t *testing.T, root string) string {
				path := writeCampaign(t, root, "c000001", "", submitted(spec))
				if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			},
			reason: "corrupt journal",
		},
		{
			name: "fingerprint-mismatch",
			write: func(t *testing.T, root string) string {
				foreign := spec
				foreign.Fingerprint = "someone-else-entirely|v1"
				return writeCampaign(t, root, "c000001", "", submitted(foreign))
			},
			atRun:  true,
			reason: "fingerprint mismatch",
		},
		{
			name: "unreadable-spec",
			write: func(t *testing.T, root string) string {
				return writeCampaign(t, root, "c000001", "", json.RawMessage(`{"spec":"{truncated"}`))
			},
			reason: "unreadable record",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			path := tc.write(t, root)
			// A healthy sibling proves one bad campaign never aborts the scan.
			writeCampaign(t, root, "c000002", "", submitted(testSpec("acme", 8)))
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			reg := openTestRegistry(t, root, Options{Slots: 1, DisableAutostart: true})
			bad, err := reg.Get("c000001")
			if err != nil {
				t.Fatal(err)
			}
			if tc.atRun {
				if err := reg.Cancel("c000002"); err != nil { // leaves the one slot to c000001
					t.Fatal(err)
				}
				reg.StartPending()
				for deadline := time.Now().Add(30 * time.Second); !bad.State().Terminal() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			if bad.State() != StateFailed || !strings.Contains(bad.lc.Reason(), tc.reason) {
				t.Fatalf("bad campaign is %s (%q), want failed naming %q", bad.State(), bad.lc.Reason(), tc.reason)
			}
			if sib, err := reg.Get("c000002"); err != nil || (!tc.atRun && sib.State() != StatePending) {
				t.Fatalf("healthy sibling did not survive the scan: %v", err)
			}
			after, err := os.ReadFile(path)
			if err != nil || !bytes.HasPrefix(after, before) {
				t.Fatalf("the untrusted journal's bytes did not stay on disk: %v", err)
			}
			// The verdict must stand after a second restart.
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			reg2 := openTestRegistry(t, root, Options{DisableAutostart: true})
			bad2, err := reg2.Get("c000001")
			if err != nil {
				t.Fatal(err)
			}
			if bad2.State() != StateFailed || bad2.lc.Reason() != bad.lc.Reason() {
				t.Fatalf("after a second restart: %s (%q), want failed (%q)", bad2.State(), bad2.lc.Reason(), bad.lc.Reason())
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
// campaign per recorded state, all of one spec, and checks how Open
// classifies each before anything runs. A Pending campaign whose
// fingerprint is assigned was running when its process died: the registry
// does not record Pending → Running. Every resumable campaign then
// completes to the spec's uninterrupted result.
func TestRegistryRestartClassifiesOnDiskState(t *testing.T) {
	spec := testSpec("acme", 11)
	spec.BudgetS = 40
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// One uninterrupted run provides the golden result and the journal the
	// rows are built from; half of it is a mid-run kill point, whose torn
	// tail the next run or append truncates.
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
	golden := gc.Status().Canonical
	goldJournal, err := os.ReadFile(filepath.Join(goldRoot, gc.ID, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	killed := goldJournal[:len(goldJournal)/2]

	const interrupted = "interrupted by process death; queued for deterministic resume"
	rows := []struct {
		name    string
		path    []State // transitions from Pending to the recorded state
		journal []byte  // nil: never started
		state   State   // after Open
		last    Transition
	}{
		{"pending-never-started", nil, nil, StatePending, Transition{To: StatePending}},
		{"pending-interrupted", nil, killed, StatePending, Transition{From: StateRunning, To: StatePending, Reason: interrupted}},
		{"running", []State{StateRunning}, killed, StatePending, Transition{From: StateRunning, To: StatePending, Reason: interrupted}},
		{"paused", []State{StateRunning, StatePaused}, killed, StatePaused, Transition{From: StateRunning, To: StatePaused}},
		{"completed", nil, goldJournal, StateCompleted, Transition{From: StateRunning, To: StateCompleted}},
	}
	root := t.TempDir()
	for i, row := range rows {
		path := writeCampaign(t, root, fmt.Sprintf("c%06d", i+1), "", submitted(spec))
		if row.journal != nil {
			if err := os.WriteFile(path, row.journal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if row.path != nil {
			lc := NewLifecycle(time.Now)
			for _, s := range row.path {
				if err := lc.To(s, ""); err != nil {
					t.Fatal(err)
				}
			}
			jr, err := journal.OpenFS(vfs.OS, path, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := jr.AppendOwner(record{State: &persistedState{State: lc.State(), Transitions: lc.History()}}); err != nil {
				t.Fatal(err)
			}
			if err := jr.Close(); err != nil {
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
	if camps[4].Status().Canonical != golden {
		t.Error("completed: result not restored")
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

func TestIDSeq(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want int
	}{
		{"c000001", 1},
		{"c000042", 42},
		{"c999999", 999999},
		{"c1000000", 1000000},
		{"c12345678", 12345678},
		{"store", 0},
		{"c", 0},
		{"c12x", 0},
		{"c-1", 0},
		{"c+1", 0},
		{"x000001", 0},
	} {
		if got := idSeq(tc.id); got != tc.want {
			t.Errorf("idSeq(%q) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

// TestRegistryIDsPastSixDigits reopens a root holding c999999 and c1000000:
// the scan lists them in the order they were issued, and the next Submit
// takes c1000001 instead of landing on an existing campaign.
func TestRegistryIDsPastSixDigits(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(root, Options{DisableAutostart: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alice", "bob"} {
		if _, err := reg.Submit(testSpec(tenant, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	for from, to := range map[string]string{"c000001": "c999999", "c000002": "c1000000"} {
		if err := os.Rename(filepath.Join(root, from), filepath.Join(root, to)); err != nil {
			t.Fatal(err)
		}
	}

	reg2, err := Open(root, Options{DisableAutostart: true})
	if err != nil {
		t.Fatal(err)
	}
	carol, err := reg2.Submit(testSpec("carol", 1))
	if err != nil {
		t.Fatal(err)
	}
	if carol.ID != "c1000001" {
		t.Errorf("the next id is %s, want c1000001", carol.ID)
	}
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}
	reg3 := openTestRegistry(t, root, Options{DisableAutostart: true})
	var got []string
	for _, st := range reg3.List("") {
		got = append(got, st.ID+":"+st.Tenant)
	}
	if want := "c999999:alice c1000000:bob c1000001:carol"; strings.Join(got, " ") != want {
		t.Errorf("listed %q, want %q", strings.Join(got, " "), want)
	}
}
