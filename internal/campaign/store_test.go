package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestRegistryStoreSharedAcrossCampaigns: with the shared store enabled, a
// second campaign over the same workload serves prior measurements as free
// store hits, and every episode it does pay for is a counted store miss
// (i.e. genuinely new work).
func TestRegistryStoreSharedAcrossCampaigns(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{Slots: 2, EnableStore: true})

	a, err := reg.Submit(testSpec("acme", 7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, a.ID, StateCompleted)
	sa := a.Status()
	if sa.StoreMisses == 0 || sa.StoreHits != 0 {
		t.Fatalf("cold campaign store counters = hits %d misses %d", sa.StoreHits, sa.StoreMisses)
	}

	b, err := reg.Submit(testSpec("acme", 7)) // identical workload and seed
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, b.ID, StateCompleted)
	sb := b.Status()
	if sb.StoreHits == 0 {
		t.Fatalf("second campaign re-measured everything: %+v", sb)
	}
	// Store hits are free, so the second run can explore past the first
	// run's budget horizon — but each paid episode must be new.
	if sb.Evals > sb.StoreMisses {
		t.Fatalf("second campaign paid for stored settings: evals %d > misses %d", sb.Evals, sb.StoreMisses)
	}

	stats, enabled := reg.StoreStats()
	if !enabled || stats.Keys == 0 || stats.WriteErr != "" {
		t.Fatalf("registry store stats = %+v enabled=%v", stats, enabled)
	}
}

// TestRegistryStoreDisabledReportsDisabled: without EnableStore the registry
// holds no store, campaigns never touch one, and StoreStats says so.
func TestRegistryStoreDisabledReportsDisabled(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{Slots: 2})
	if reg.store != nil {
		t.Fatal("store open without EnableStore")
	}
	if _, enabled := reg.StoreStats(); enabled {
		t.Fatal("StoreStats reports enabled without a store")
	}
	c, err := reg.Submit(testSpec("acme", 7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StateCompleted)
	if s := c.Status(); s.StoreHits != 0 || s.StoreMisses != 0 || s.WarmStartSeeds != 0 {
		t.Fatalf("storeless campaign has store counters: %+v", s)
	}
}

// TestRegistryWarmStartResolvesOnceAndPersists: a warm-started campaign
// resolves its seed keys from the store exactly once, freezes them into the
// persisted spec, and a registry restart neither loses nor re-resolves them.
func TestRegistryWarmStartResolvesOnceAndPersists(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, Options{Slots: 2, EnableStore: true})
	if err != nil {
		t.Fatal(err)
	}

	coldSpec := testSpec("acme", 11)
	coldSpec.Method = "cstuner"
	coldSpec.DatasetSize = 32 // the cstuner pipeline needs enough samples to fit PMNF models
	cold, err := reg.Submit(coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, cold.ID, StateCompleted)

	// Warm seeds feed the cstuner search (sampling set + GA population);
	// other methods ignore them, so the seed counter pin needs this one.
	warmSpec := testSpec("acme", 12)
	warmSpec.Method = "cstuner"
	warmSpec.DatasetSize = 32
	warmSpec.WarmStart = 4
	warm, err := reg.Submit(warmSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, warm.ID, StateCompleted)
	if warm.Spec.WarmKeys == nil {
		t.Fatal("warm campaign completed without resolving WarmKeys")
	}
	if len(warm.Spec.WarmKeys) == 0 {
		t.Fatal("store held bests but resolution found none")
	}
	if s := warm.Status(); s.WarmStartSeeds == 0 {
		t.Fatalf("no seeds reached the search: %+v", s)
	}
	keys := append([]string(nil), warm.Spec.WarmKeys...)
	fp := warm.Spec.Fingerprint
	if fp == "" {
		t.Fatal("completed campaign has no fingerprint")
	}
	statuses := reg.List("")
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: persisted keys (and the fingerprint that froze them) survive
	// verbatim — the grown store must not change a finished identity.
	reg2 := openTestRegistry(t, dir, Options{Slots: 2, EnableStore: true, DisableAutostart: true})
	warm2, err := reg2.Get(warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if warm2.Spec.Fingerprint != fp {
		t.Fatalf("fingerprint changed across restart: %q vs %q", warm2.Spec.Fingerprint, fp)
	}
	// The store counters and warm seeds reload from the result records.
	if again := reg2.List(""); !reflect.DeepEqual(again, statuses) {
		t.Fatalf("statuses changed across restart:\n%+v\nwere\n%+v", again, statuses)
	}
	if len(warm2.Spec.WarmKeys) != len(keys) {
		t.Fatalf("warm keys changed across restart: %v vs %v", warm2.Spec.WarmKeys, keys)
	}
	for i := range keys {
		if warm2.Spec.WarmKeys[i] != keys[i] {
			t.Fatalf("warm keys changed across restart: %v vs %v", warm2.Spec.WarmKeys, keys)
		}
	}
}

// TestSpecValidateWarmFields: warm_start must be non-negative and warm_keys
// are registry-owned — submissions carrying them are rejected.
func TestSpecValidateWarmFields(t *testing.T) {
	reg := openTestRegistry(t, t.TempDir(), Options{Slots: 1, DisableAutostart: true})

	neg := testSpec("acme", 1)
	neg.WarmStart = -1
	if _, err := reg.Submit(neg); err == nil {
		t.Fatal("negative warm_start accepted")
	}

	keyed := testSpec("acme", 1)
	keyed.WarmKeys = []string{"anything"}
	if _, err := reg.Submit(keyed); err == nil {
		t.Fatal("submitted warm_keys accepted")
	}
}

// TestScanSkipsStoreDir: the shared store's directory lives under the
// registry root, and the restart scan must not mistake it for a campaign —
// with the store enabled, and on a later restart of the same root with the
// store disabled (the directory is still there; it must not come back as a
// phantom failed campaign).
func TestScanSkipsStoreDir(t *testing.T) {
	dir := t.TempDir()
	reg := openTestRegistry(t, dir, Options{Slots: 2, EnableStore: true})
	c, err := reg.Submit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StateCompleted)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	for _, enable := range []bool{true, false} {
		reg2 := openTestRegistry(t, dir, Options{Slots: 2, EnableStore: enable, DisableAutostart: true})
		h := reg2.Health()
		if h.Campaigns != 1 || h.ByState[StateFailed] != 0 {
			t.Fatalf("EnableStore=%v: store dir loaded as a campaign: %+v", enable, h)
		}
		if _, err := reg2.Get("store"); err == nil {
			t.Fatalf("EnableStore=%v: registry serves the store dir as campaign %q", enable, "store")
		}
		if err := reg2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// rootReadDirFails is an FS whose ReadDir of root alone fails.
type rootReadDirFails struct {
	vfs.FS
	root string
}

func (f rootReadDirFails) ReadDir(name string) ([]os.DirEntry, error) {
	if name == f.root {
		return nil, vfs.EIO()
	}
	return f.FS.ReadDir(name)
}

// TestRegistryOpenJoinsStoreLoad fails a store-on Open while the store
// loads on its second goroutine beside the campaign scan. A failed store
// read fails Open with the store's error, whether the scan succeeds or
// fails too; a failed scan alone fails it with the scan's. Either way no
// goroutine outlives the call, and a clean reopen lists the same campaigns
// in the same states.
func TestRegistryOpenJoinsStoreLoad(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(root, Options{Slots: 2, EnableStore: true})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		c, err := reg.Submit(testSpec("acme", seed))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, reg, c.ID, StateCompleted)
	}
	want := reg.List("")
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		fsys vfs.FS
		err  string // the prefix of the error Open must return
	}{
		{"store ReadDir fails", vfs.NewFaultFS(vfs.OS,
			vfs.Fault{Op: vfs.OpReadDir, Path: filepath.Join(root, "store"), Err: vfs.EIO(), Every: true}), "store: "},
		{"every ReadDir fails", vfs.NewFaultFS(vfs.OS,
			vfs.Fault{Op: vfs.OpReadDir, Err: vfs.EIO(), Every: true}), "store: "},
		{"root ReadDir fails", rootReadDirFails{FS: vfs.OS, root: root}, "campaign: scan: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			reg, err := Open(root, Options{Slots: 2, EnableStore: true, FS: tc.fsys})
			if err == nil {
				_ = reg.Close()
				t.Fatal("Open succeeded through a failing ReadDir")
			}
			if !errors.Is(err, vfs.ErrInjected) || !strings.HasPrefix(err.Error(), tc.err) {
				t.Fatalf("Open returned %q, want the injected error behind %q", err, tc.err)
			}
			// A joined goroutine has called Done but may not have exited
			// yet, so the count may take a moment to fall.
			for ms := 0; runtime.NumGoroutine() > before; ms++ {
				if ms == 2000 {
					t.Fatalf("%d goroutines before Open, %d two seconds after it failed", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
			got := openTestRegistry(t, root, Options{Slots: 2, EnableStore: true, DisableAutostart: true}).List("")
			if len(got) != len(want) {
				t.Fatalf("a clean reopen lists %d campaigns, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].State != want[i].State {
					t.Errorf("a clean reopen lists %s %s, want %s %s", got[i].ID, got[i].State, want[i].ID, want[i].State)
				}
			}
		})
	}
}
