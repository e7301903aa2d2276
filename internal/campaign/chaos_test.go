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

// dirOpFS is an FS that logs every MkdirAll, SyncDir, Rename, create and
// file Sync, in order, each with its path.
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

func (f *dirOpFS) logged() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ops...)
}

func (f *dirOpFS) MkdirAll(path string, perm os.FileMode) error {
	f.log("mkdir " + path)
	return f.FS.MkdirAll(path, perm)
}

func (f *dirOpFS) SyncDir(dir string) error {
	f.log("syncdir " + dir)
	return f.FS.SyncDir(dir)
}

func (f *dirOpFS) Rename(oldpath, newpath string) error {
	f.log("rename " + oldpath)
	return f.FS.Rename(oldpath, newpath)
}

func (f *dirOpFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if flag&os.O_CREATE != 0 {
		f.log("create " + name)
	}
	fh, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncLogFile{File: fh, fs: f}, nil
}

// syncLogFile logs its Syncs to the dirOpFS that opened it.
type syncLogFile struct {
	vfs.File
	fs *dirOpFS
}

func (f syncLogFile) Sync() error {
	f.fs.log("sync " + f.Name())
	return f.File.Sync()
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
	ops := fsys.logged()
	mkdir := slices.Index(ops, "mkdir "+filepath.Join(root, c.ID))
	if mkdir < 0 {
		t.Fatalf("Submit never created %s: %q", c.ID, ops)
	}
	if !slices.Contains(ops[mkdir+1:], "syncdir "+root) {
		t.Fatalf("Submit did not fsync the root %s after creating %s: %q", root, c.ID, ops)
	}
}

// registryFsyncs keeps the file and directory fsyncs of ops that the
// registry makes itself: it drops the journal's syncs and the directory
// sync that follows the journal's creation.
func registryFsyncs(ops []string) []string {
	var out []string
	for i, op := range ops {
		journal := strings.HasSuffix(op, "journal.wal")
		if strings.HasPrefix(op, "syncdir ") && i > 0 && strings.HasSuffix(ops[i-1], "journal.wal") {
			journal = true
		}
		if !journal && (strings.HasPrefix(op, "sync ") || strings.HasPrefix(op, "syncdir ")) {
			out = append(out, op)
		}
	}
	return out
}

// TestRegistryFsyncsPerCampaign pins the registry's own fsyncs for one
// completed campaign without a store: 5 file and 5 directory fsyncs, the
// journal's not counted. Submit writes spec.json and the Pending state.json
// under one directory fsync, and starting the campaign writes no state.
func TestRegistryFsyncsPerCampaign(t *testing.T) {
	root := t.TempDir()
	fsys := &dirOpFS{FS: vfs.OS}
	reg := openTestRegistry(t, root, Options{Slots: 1, FS: fsys, DisableAutostart: true})
	c, err := reg.Submit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, c.ID)
	file := func(name string) string { return "sync " + filepath.Join(dir, name) }
	submit := fsys.logged()
	want := []string{file("spec.json.tmp"), file("state.json.tmp"), "syncdir " + dir, "syncdir " + root}
	if got := registryFsyncs(submit); !slices.Equal(got, want) {
		t.Fatalf("Submit fsyncs:\n got %q\nwant %q", got, want)
	}

	reg.StartPending()
	waitState(t, reg, c.ID, StateCompleted)
	if err := reg.Close(); err != nil { // waits for the terminal state write
		t.Fatal(err)
	}
	ops := fsys.logged()
	run := ops[len(submit):]
	created := slices.Index(run, "create "+filepath.Join(dir, "journal.wal"))
	if created < 0 {
		t.Fatalf("the run never created its journal: %q", run)
	}
	for _, op := range run[:created] {
		if strings.Contains(op, ".json") && !strings.Contains(op, "spec.json") {
			t.Fatalf("the run wrote %q before its journal; only the fingerprint's spec.json rewrite may", op)
		}
	}
	want = []string{file("spec.json.tmp"), "syncdir " + dir}
	if got := registryFsyncs(run[:created]); !slices.Equal(got, want) {
		t.Fatalf("fsyncs before the journal:\n got %q\nwant %q", got, want)
	}
	want = []string{file("result.json.tmp"), "syncdir " + dir, file("state.json.tmp"), "syncdir " + dir}
	if got := registryFsyncs(run[created:]); !slices.Equal(got, want) {
		t.Fatalf("fsyncs after the journal:\n got %q\nwant %q", got, want)
	}

	files, dirs := 0, 0
	for _, op := range registryFsyncs(ops) {
		if strings.HasPrefix(op, "syncdir ") {
			dirs++
		} else {
			files++
		}
	}
	if files != 5 || dirs != 5 {
		t.Fatalf("one campaign made %d file and %d directory fsyncs, want 5 and 5: %q", files, dirs, ops)
	}
}
