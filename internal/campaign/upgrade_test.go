package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyRoot copies a registry root of campaign directories from to a temp
// dir and returns it.
func copyRoot(t *testing.T, from string) string {
	t.Helper()
	root := t.TempDir()
	dirs, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if err := os.Mkdir(filepath.Join(root, d.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(filepath.Join(from, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(from, d.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, d.Name(), f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root
}

// TestRegistryUpgradesOldLayout opens testdata/oldroot, a root the
// registry wrote when a campaign was four files (spec.json, state.json and
// result.json beside journal.wal), one campaign per case. Open upgrades it
// in place: every status, last transition, the completed canonical and the
// tenant ledgers come out as the earlier registry read them, and every
// campaign that was not over resumes to its uninterrupted canonical —
// c000008's spec.json still carries the retired workers, checkpoint_every,
// repeats and quarantine fields. A further reopen finds no JSON file left
// and every status unchanged.
func TestRegistryUpgradesOldLayout(t *testing.T) {
	big := func(tenant string, seed int64) Spec {
		s := testSpec(tenant, seed)
		s.BudgetS = 40
		return s
	}
	const interrupted = "interrupted by process death; queued for deterministic resume"
	cases := []struct {
		id    string
		spec  Spec
		state State
		last  Transition // AtUnixNano ignored; a Reason ending in "…" is a prefix
	}{
		{"c000001", testSpec("alice", 21), StatePending, Transition{To: StatePending}},
		{"c000002", big("alice", 22), StatePending, Transition{From: StateRunning, To: StatePending, Reason: interrupted}},
		{"c000003", big("bob", 23), StatePending, Transition{From: StateRunning, To: StatePending, Reason: interrupted}},
		{"c000004", big("bob", 24), StatePaused, Transition{From: StateRunning, To: StatePaused, Reason: "paused by request"}},
		{"c000005", testSpec("alice", 25), StateCompleted, Transition{From: StateRunning, To: StateCompleted}},
		{"c000006", big("carol", 26), StateCanceled, Transition{From: StateRunning, To: StateCanceled, Reason: "canceled by request"}},
		{"c000007", testSpec("carol", 27), StateFailed, Transition{From: StatePending, To: StateFailed, Reason: "journal quarantined to journal.wal.bad: journal: corrupt journal: …"}},
		{"c000008", big("dave", 28), StatePending, Transition{From: StateRunning, To: StatePending, Reason: interrupted}},
	}
	root := copyRoot(t, filepath.Join("testdata", "oldroot"))

	reg := openTestRegistry(t, root, Options{Slots: 2, DisableAutostart: true})
	for _, tc := range cases {
		c, err := reg.Get(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Status()
		last := st.History[len(st.History)-1]
		last.AtUnixNano = 0
		want := tc.last
		if prefix, ok := strings.CutSuffix(want.Reason, "…"); ok && strings.HasPrefix(last.Reason, prefix) {
			want.Reason = last.Reason
		}
		if st.Tenant != tc.spec.Tenant || st.Seed != tc.spec.Seed || st.State != tc.state || last != want {
			t.Errorf("%s: loaded %s/%d as %s, last %+v; want %s/%d as %s, last %+v",
				tc.id, st.Tenant, st.Seed, st.State, last, tc.spec.Tenant, tc.spec.Seed, tc.state, tc.last)
		}
	}
	if _, canonical, ok := mustGet(t, reg, "c000005").Result(); !ok || canonical != goldenCanonical(t, testSpec("alice", 25)) {
		t.Errorf("c000005: completed canonical not kept (ok %v)", ok)
	}
	ledgers := map[string]LedgerSnapshot{
		"alice": {Tenant: "alice", ReservedS: 4 + 40, SpentS: 4},
		"bob":   {Tenant: "bob", ReservedS: 80},
		"carol": {Tenant: "carol"},
		"dave":  {Tenant: "dave", ReservedS: 40},
	}
	for tenant, want := range ledgers {
		if got := reg.Ledgers().Snapshot(tenant); got != want {
			t.Errorf("ledger %+v, want %+v", got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "c000007", "journal.wal.bad")); err != nil {
		t.Errorf("the quarantined journal is gone: %v", err)
	}
	if t.Failed() {
		return
	}

	reg.StartPending()
	if err := reg.ResumeCampaign("c000004"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if tc.state.Terminal() {
			continue
		}
		waitState(t, reg, tc.id, StateCompleted)
		if _, canonical, _ := mustGet(t, reg, tc.id).Result(); canonical != goldenCanonical(t, tc.spec) {
			t.Errorf("%s: resumed to a canonical other than its uninterrupted run's", tc.id)
		}
	}
	statuses := reg.List("")
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range cases {
		for _, name := range []string{"spec.json", "state.json", "result.json"} {
			if _, err := os.Stat(filepath.Join(root, tc.id, name)); !os.IsNotExist(err) {
				t.Errorf("%s/%s left behind (%v)", tc.id, name, err)
			}
		}
	}
	reg2 := openTestRegistry(t, root, Options{DisableAutostart: true})
	again := reg2.List("")
	if len(again) != len(statuses) {
		t.Fatalf("reopened with %d campaigns, had %d", len(again), len(statuses))
	}
	for i, st := range again {
		if st.State != statuses[i].State || st.Canonical != statuses[i].Canonical || st.Reason != statuses[i].Reason {
			t.Errorf("%s: reopened as %s (%q), was %s (%q)", st.ID, st.State, st.Reason, statuses[i].State, statuses[i].Reason)
		}
	}
}

func mustGet(t *testing.T, reg *Registry, id string) *Campaign {
	t.Helper()
	c, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
