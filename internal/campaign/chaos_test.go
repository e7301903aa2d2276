package campaign

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/vfs"
)

// TestRegistryJournalFaultFailsOnlyCampaign breaks exactly one campaign's
// journal (every fsync on c000001/journal.wal returns EIO) and proves the
// blast radius: that campaign fails with the journal error in its reason,
// the sibling campaign runs to completion untouched, and the registry
// itself stays healthy — a journal failure is campaign-scoped, never a
// daemon-wide degradation.
func TestRegistryJournalFaultFailsOnlyCampaign(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.OS, 0,
		vfs.Fault{Op: vfs.OpSync, Path: "c000001/journal.wal", Err: vfs.EIO(), Rate: 1})
	reg := openTestRegistry(t, t.TempDir(), Options{Slots: 2, FS: fsys})

	doomed, err := reg.Submit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := reg.Submit(testSpec("fresh", 2))
	if err != nil {
		t.Fatal(err)
	}

	waitState(t, reg, doomed.ID, StateFailed)
	waitState(t, reg, healthy.ID, StateCompleted)

	st := doomed.Status()
	if !strings.Contains(st.Reason, "journal") {
		t.Fatalf("failed campaign's reason does not name the journal: %q", st.Reason)
	}

	h := reg.Health()
	if h.ByState[StateFailed] != 1 || h.ByState[StateCompleted] != 1 {
		t.Fatalf("health state counts wrong: %+v", h)
	}
	if h.Degraded {
		t.Fatalf("a campaign-scoped journal fault degraded the whole registry: %+v", h)
	}

	// The doomed tenant's reservation was settled back on failure: a fresh
	// submission from the same tenant is admitted and completes.
	retry, err := reg.Submit(testSpec("acme", 3))
	if err != nil {
		t.Fatalf("registry refused work after an isolated journal fault: %v", err)
	}
	waitState(t, reg, retry.ID, StateCompleted)
}

// dirOpFS is an FS that logs every MkdirAll and SyncDir, in order.
type dirOpFS struct {
	vfs.FS
	mu  sync.Mutex
	ops []string
}

func (f *dirOpFS) log(op string) {
	f.mu.Lock()
	f.ops = append(f.ops, op)
	f.mu.Unlock()
}

func (f *dirOpFS) MkdirAll(path string, perm os.FileMode) error {
	f.log("mkdir " + path)
	return f.FS.MkdirAll(path, perm)
}

func (f *dirOpFS) SyncDir(dir string) error {
	f.log("syncdir " + dir)
	return f.FS.SyncDir(dir)
}

// TestSubmitSyncsRootAfterMkdir requires Submit to fsync the registry root
// after creating the campaign directory, before it returns: without that
// sync a power cut after the 201 can lose the whole directory. FaultFS does
// not model directory entries, so no fault sweep can catch the omission.
func TestSubmitSyncsRootAfterMkdir(t *testing.T) {
	root := t.TempDir()
	fsys := &dirOpFS{FS: vfs.OS}
	reg := openTestRegistry(t, root, Options{FS: fsys, DisableAutostart: true})
	c, err := reg.Submit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	fsys.mu.Lock()
	ops := append([]string(nil), fsys.ops...)
	fsys.mu.Unlock()
	mkdir := slices.Index(ops, "mkdir "+filepath.Join(root, c.ID))
	if mkdir < 0 {
		t.Fatalf("Submit never created %s: %q", c.ID, ops)
	}
	if !slices.Contains(ops[mkdir+1:], "syncdir "+root) {
		t.Fatalf("Submit did not fsync the root %s after creating %s: %q", root, c.ID, ops)
	}
}
