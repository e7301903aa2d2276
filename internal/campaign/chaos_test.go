package campaign

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/vfs"
)

// TestRegistryJournalFaultFailsOnlyCampaign breaks exactly one campaign's
// journal once it is admitted (every fsync on c000001/journal.wal through a
// handle its run opens returns EIO) and proves the blast radius: that
// campaign fails with the journal error in its reason, the sibling campaign
// runs to completion untouched, and the registry itself stays healthy — a
// journal failure is campaign-scoped, never a daemon-wide degradation.
// Submit's own create of the file stays clean: a Submit whose fsync fails
// is refused (TestRegistryFaultPointWalker).
func TestRegistryJournalFaultFailsOnlyCampaign(t *testing.T) {
	fsys := admitted{FS: vfs.OS, faults: vfs.NewFaultFS(vfs.OS,
		vfs.Fault{Op: vfs.OpSync, Path: "c000001/journal.wal", Err: vfs.EIO(), Every: true})}
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

// admitted is an FS whose opens of existing files go through faults: a
// fault rule there breaks a campaign's journal after Submit created it.
type admitted struct {
	vfs.FS
	faults vfs.FS
}

func (f admitted) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if flag&os.O_CREATE != 0 {
		return f.FS.OpenFile(name, flag, perm)
	}
	return f.faults.OpenFile(name, flag, perm)
}

// dirOpFS is an FS that logs every MkdirAll, SyncDir, Rename, create, open
// of an existing file and file Sync, in order, each with its path.
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
	} else {
		f.log("open " + name)
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

// fsyncs keeps the file and directory fsyncs of ops.
func fsyncs(ops []string) []string {
	var out []string
	for _, op := range ops {
		if strings.HasPrefix(op, "sync ") || strings.HasPrefix(op, "syncdir ") {
			out = append(out, op)
		}
	}
	return out
}

// TestRegistryFsyncsPerCampaign pins every fsync of one completed campaign
// without a store: 3 file and 2 directory fsyncs, all of them its one
// file's or for it. Submit syncs the journal holding the spec and the
// Pending state, then the campaign directory and the root. Starting the
// campaign syncs nothing; the run's episodes take one sync, and the result
// with the Completed state one more.
func TestRegistryFsyncsPerCampaign(t *testing.T) {
	root := t.TempDir()
	fsys := &dirOpFS{FS: vfs.OS}
	reg := openTestRegistry(t, root, Options{Slots: 1, FS: fsys, DisableAutostart: true})
	c, err := reg.Submit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, c.ID)
	file := "sync " + filepath.Join(dir, "journal.wal")
	submit := fsys.logged()
	want := []string{file, "syncdir " + dir, "syncdir " + root}
	if got := fsyncs(submit); !slices.Equal(got, want) {
		t.Fatalf("Submit fsyncs:\n got %q\nwant %q", got, want)
	}

	reg.StartPending()
	waitState(t, reg, c.ID, StateCompleted)
	if err := reg.Close(); err != nil { // waits for the completion record's sync
		t.Fatal(err)
	}
	want = []string{file, file}
	if got := fsyncs(fsys.logged()[len(submit):]); !slices.Equal(got, want) {
		t.Fatalf("run fsyncs:\n got %q\nwant %q", got, want)
	}
}

// TestRegistryFsyncsPauseResumeCancel pins the fsyncs of a pause, a resume
// and a cancel of a paused campaign, in TestRegistryFsyncsPerCampaign's
// style. The only slot is held, so no episode is journaled and the counts
// are exact. The first pause syncs the run's journal as Execute returns,
// for the fingerprint's record, then the Paused record; a later run
// journals nothing, so its pause syncs the Paused record alone. A resume
// syncs its Running record before ResumeCampaign returns, and a cancel of
// a paused campaign its Canceled record. None syncs a directory.
func TestRegistryFsyncsPauseResumeCancel(t *testing.T) {
	root := t.TempDir()
	fsys := &dirOpFS{FS: vfs.OS}
	reg := openTestRegistry(t, root, Options{Slots: 1, FS: fsys})
	if err := reg.Scheduler().Acquire(context.Background(), "holder", 1); err != nil {
		t.Fatal(err)
	}
	defer reg.Scheduler().Release()
	c, err := reg.Submit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	file := "sync " + filepath.Join(root, c.ID, "journal.wal")
	mark := len(fsys.logged())
	check := func(what string, want ...string) {
		t.Helper()
		ops := fsys.logged()
		if got := fsyncs(ops[mark:]); !slices.Equal(got, want) {
			t.Errorf("%s fsyncs:\n got %q\nwant %q", what, got, want)
		}
		mark = len(ops)
	}
	// pause returns once the runner has recorded Paused and let go of the
	// journal, which it holds until it returns.
	pause := func() {
		t.Helper()
		if err := reg.Pause(c.ID); err != nil {
			t.Fatal(err)
		}
		waitState(t, reg, c.ID, StatePaused)
		c.fileMu.Lock()
		c.fileMu.Unlock()
	}

	pause()
	check("pause", file, file)
	if err := reg.ResumeCampaign(c.ID); err != nil {
		t.Fatal(err)
	}
	check("resume", file)
	pause()
	check("second pause", file)
	if err := reg.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	check("cancel of the paused campaign", file)
}

// TestRegistryPauseOpensNoJournal pauses a campaign whose run has
// journaled episodes past 4 KB. The run records Paused through the journal
// it holds open, and its Close syncs the record, so nothing opens
// journal.wal after the pause request: no reopen decodes the episodes
// again. The fsyncs are not pinned, since a pause that lands just after a
// group commit makes one fewer.
func TestRegistryPauseOpensNoJournal(t *testing.T) {
	root := t.TempDir()
	fsys := &dirOpFS{FS: vfs.OS}
	reg := openTestRegistry(t, root, Options{Slots: 1, FS: fsys})
	spec := testSpec("acme", 1)
	spec.BudgetS = 100000
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, c.ID, "journal.wal")
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 4096 {
			break
		}
		if time.Now().After(deadline) || c.State() != StateRunning {
			t.Fatalf("the journal never passed 4 KB; the campaign is %s", c.State())
		}
	}
	mark := len(fsys.logged())
	if err := reg.Pause(c.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, reg, c.ID, StatePaused)
	c.fileMu.Lock() // the runner holds it until its Close returns
	c.fileMu.Unlock()
	if opens := slices.Index(fsys.logged()[mark:], "open "+path); opens >= 0 {
		t.Errorf("the pause opened the journal: %q", fsys.logged()[mark:])
	}
}

// TestRegistryFsyncsResumeWithEpisodes pins the fsyncs of a resume and a
// cancel of a paused campaign whose journal holds episodes past 4 KB. The
// run's write that first passes 4 KB waits while the test takes the only
// scheduler slot, so the run's next live measurement waits for the slot and
// the pause lands on a running campaign. The resumed run then opens its
// journal, replays what its search asks for before its first live
// measurement, a constraint check, and waits for the slot. ResumeCampaign
// syncs its Running record once: the open that appends it decodes the
// episodes and syncs nothing. The resumed run's open and replay sync
// nothing either; they leave the recovered records to the run's next sync,
// which its pause pays before the Paused record's. A cancel of the paused
// campaign syncs its Canceled record once.
func TestRegistryFsyncsResumeWithEpisodes(t *testing.T) {
	root := t.TempDir()
	fsys := &crossFS{dirOpFS: &dirOpFS{FS: vfs.OS}, crossed: make(chan struct{}), resume: make(chan struct{})}
	var resumeOnce sync.Once
	release := func() { resumeOnce.Do(func() { close(fsys.resume) }) }
	defer release()
	reg := openTestRegistry(t, root, Options{Slots: 1, FS: fsys})
	spec := testSpec("acme", 1)
	spec.Method, spec.BudgetS = "artemis", 100000 // its resumed search replays dozens of episodes first
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fsys.crossed:
	case <-time.After(60 * time.Second):
		t.Fatalf("the journal never passed 4 KB; the campaign is %s", c.State())
	}
	sched := reg.Scheduler()
	if err := sched.Acquire(context.Background(), "holder", 1); err != nil {
		t.Fatal(err)
	}
	defer sched.Release()
	release()
	pause := func() {
		t.Helper()
		if err := reg.Pause(c.ID); err != nil {
			t.Fatal(err)
		}
		waitState(t, reg, c.ID, StatePaused)
		c.fileMu.Lock() // the runner holds it until its Close returns
		c.fileMu.Unlock()
	}
	pause()

	file := "sync " + filepath.Join(root, c.ID, "journal.wal")
	mark := len(fsys.logged())
	check := func(what string, want ...string) {
		t.Helper()
		ops := fsys.logged()
		if got := fsyncs(ops[mark:]); !slices.Equal(got, want) {
			t.Errorf("%s fsyncs:\n got %q\nwant %q", what, got, want)
		}
		mark = len(ops)
	}
	if err := reg.ResumeCampaign(c.ID); err != nil {
		t.Fatal(err)
	}
	check("resume", file)
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		sched.mu.Lock()
		waiting := sched.waiting[spec.Tenant] > 0
		sched.mu.Unlock()
		if waiting {
			break
		}
		if time.Now().After(deadline) || c.State() != StateRunning {
			t.Fatalf("the resumed run never waited for the slot; the campaign is %s", c.State())
		}
	}
	if n := c.Status().Replayed; n == 0 {
		t.Fatal("the resumed run replayed nothing before it waited for the slot")
	} else {
		t.Logf("the resumed run replayed %d episodes before it waited for the slot", n)
	}
	check("the resumed run's open and replay")
	pause()
	check("second pause", file, file)
	if err := reg.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	check("cancel of the paused campaign", file)
}

// crossFS is a dirOpFS whose first write to leave a file past 4 KB closes
// crossed and returns only once resume is closed.
type crossFS struct {
	*dirOpFS
	crossed chan struct{}
	resume  chan struct{}
	once    sync.Once
}

func (f *crossFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	fh, err := f.dirOpFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return crossFile{File: fh, fs: f}, nil
}

type crossFile struct {
	vfs.File
	fs *crossFS
}

func (f crossFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if end, serr := f.Seek(0, io.SeekCurrent); serr == nil && end > 4096 {
		f.fs.once.Do(func() {
			close(f.fs.crossed)
			<-f.fs.resume
		})
	}
	return n, err
}

// episodeTap is a FaultFS whose files note the op index of the first write
// that carries an episode frame's payload.
type episodeTap struct {
	*vfs.FaultFS
	mu    sync.Mutex
	first int64 // -1 until an episode is written
}

func (f *episodeTap) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	fh, err := f.FaultFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tapFile{File: fh, tap: f}, nil
}

func (f *episodeTap) seen() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.first
}

type tapFile struct {
	vfs.File
	tap *episodeTap
}

func (f tapFile) Write(p []byte) (int, error) {
	f.tap.mu.Lock()
	if f.tap.first < 0 && strings.HasPrefix(string(p), `{"t":"ep"`) {
		f.tap.first = f.tap.Ops() // the index this write takes
	}
	f.tap.mu.Unlock()
	return f.File.Write(p)
}

// firstEpisodeWrite returns the op index, on a fresh FaultFS, of the write
// of the first episode's payload in spec's run: one slot and no autostart
// keep the ops before it deterministic. The run is stopped once it is seen.
func firstEpisodeWrite(t *testing.T, spec Spec, opts Options) int64 {
	t.Helper()
	tap := &episodeTap{FaultFS: vfs.NewFaultFS(vfs.OS), first: -1}
	opts.FS = tap
	reg := openTestRegistry(t, t.TempDir(), opts)
	c, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg.StartPending()
	for deadline := time.Now().Add(60 * time.Second); tap.seen() < 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) || c.State().Terminal() {
			t.Fatalf("no episode was written; the campaign is %s", c.State())
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	return tap.seen()
}

// TestRegistryTornEpisodeChargesNothingMore tears the first episode append
// of testSpec's run with a FaultFS short write, at budgets 400 and 4,000 s.
// Once its journal has failed, the run's engine refuses every cache miss
// before measuring, so the campaign ends Failed on the journal's error with
// no evaluation, and its tenant settles only what the run charged before
// the tear: the two constraint rejections its search checks first, 2·CheckS,
// whatever the budget.
func TestRegistryTornEpisodeChargesNothingMore(t *testing.T) {
	for _, budget := range []float64{400, 4000} {
		spec := testSpec("acme", 1)
		spec.BudgetS = budget
		opts := Options{Slots: 1, TenantBudgetS: 100000, DisableAutostart: true}
		at := firstEpisodeWrite(t, spec, opts)
		ff := vfs.NewFaultFS(vfs.OS, vfs.Fault{Op: vfs.OpWrite, Path: "journal.wal", Err: vfs.EIO(), Short: true, AtIndex: at})
		opts.FS = ff
		reg := openTestRegistry(t, t.TempDir(), opts)
		c, err := reg.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg.StartPending()
		waitState(t, reg, c.ID, StateFailed)
		st := c.Status()
		snap := reg.Ledgers().Snapshot(spec.Tenant)
		t.Logf("budget %g: %q after %d evaluations; %g s settled", budget, st.Reason, st.Evals, snap.SpentS)
		if ff.Injected() != 1 || !strings.HasPrefix(st.Reason, "execute: ") {
			t.Fatalf("budget %g: the tear fired %d times and the campaign failed with %q, want one tear of an episode append", budget, ff.Injected(), st.Reason)
		}
		if want := 2 * engine.CheckS; st.Evals != 0 || st.SpentS != want || snap.SpentS != want || snap.ReservedS != 0 {
			t.Errorf("budget %g: %d evaluations and %g s spent; ledger %+v; want none and %g s settled", budget, st.Evals, st.SpentS, snap, want)
		}
	}
}

// walkFlavors are the disk faults the walker injects, cycled across its
// op indices; a short write fires only where the index lands on a write.
var walkFlavors = []struct {
	name  string
	fault vfs.Fault
}{
	{"eio", vfs.Fault{Err: vfs.EIO()}},
	{"enospc", vfs.Fault{Err: vfs.ENoSpace()}},
	{"short", vfs.Fault{Op: vfs.OpWrite, Err: vfs.EIO(), Short: true}},
}

// walkCampaign opens a registry at root through fsys, submits spec, runs it
// to a terminal state and closes the registry. It returns the op index
// Submit started at, the op count at the end, the campaign (nil when Submit
// failed) and Submit's error.
func walkCampaign(t *testing.T, root string, fsys *vfs.FaultFS, opts Options, spec Spec) (int64, int64, *Campaign, error) {
	t.Helper()
	opts.FS = fsys
	reg, err := Open(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := fsys.Ops()
	c, serr := reg.Submit(spec)
	if serr == nil {
		reg.StartPending()
		for deadline := time.Now().Add(60 * time.Second); !c.State().Terminal(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("campaign stuck in %s", c.State())
			}
		}
	}
	_ = reg.Close() // a faulted run may fail its close; the reopen below judges the disk
	return first, fsys.Ops(), c, serr
}

// settleAll reopens root on the real filesystem, runs every pending
// campaign to a terminal state and returns the statuses.
func settleAll(t *testing.T, root string, opts Options) []Status {
	t.Helper()
	reg, err := Open(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reg.Close(); err != nil {
			t.Error(err)
		}
	}()
	reg.StartPending()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		done := true
		for _, st := range reg.List("") {
			done = done && st.State.Terminal()
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaigns stuck after reopen: %+v", reg.List(""))
		}
	}
	for _, s := range reg.Ledgers().Snapshots() {
		if s.SpentS+s.ReservedS > s.BudgetS+1e-9 {
			t.Errorf("tenant %s overspent: spent %g + reserved %g > budget %g", s.Tenant, s.SpentS, s.ReservedS, s.BudgetS)
		}
	}
	return reg.List("")
}

// TestRegistryFaultPointWalker injects one disk fault at each filesystem
// operation of one registry campaign — its Submit, its run and its terminal
// write — and, in a second sweep, cuts the power there instead. After each
// it reopens the root on a clean filesystem, runs what is pending and
// requires:
//   - a Submit that returned an error left no campaign;
//   - a Submit that returned success ends Completed with the uninterrupted
//     canonical, or Failed with a reason;
//   - the tenant's spent + reserved stays within its budget;
//   - a second reopen changes no status.
//
// One slot and no autostart keep the order of filesystem operations
// deterministic. testSpec measures three settings, so the campaign is a few
// dozen operations and the walker sweeps every one; long runs of episode
// appends are TestCampaignFaultPointWalker's to sweep.
func TestRegistryFaultPointWalker(t *testing.T) {
	spec := testSpec("acme", 1)
	want := goldenCanonical(t, spec)
	opts := Options{Slots: 1, TenantBudgetS: spec.BudgetS, DisableAutostart: true}
	first, n, _, err := walkCampaign(t, t.TempDir(), vfs.NewFaultFS(vfs.OS), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("the campaign is ops %d to %d", first, n)

	check := func(root string, serr error, at string) {
		t.Helper()
		got := settleAll(t, root, opts)
		switch {
		case serr != nil && len(got) != 0:
			t.Errorf("%s: Submit failed (%v), yet the reopen lists %+v", at, serr, got)
		case serr == nil && len(got) != 1:
			t.Errorf("%s: Submit succeeded, yet the reopen lists %d campaigns", at, len(got))
		case serr == nil && got[0].State == StateCompleted && got[0].Canonical != want:
			t.Errorf("%s: completed with a different canonical:\n%s\nwant\n%s", at, got[0].Canonical, want)
		case serr == nil && got[0].State == StateFailed && got[0].Reason == "":
			t.Errorf("%s: failed without a reason", at)
		case serr == nil && got[0].State != StateCompleted && got[0].State != StateFailed:
			t.Errorf("%s: ended %s", at, got[0].State)
		}
		again := settleAll(t, root, opts)
		if len(again) != len(got) {
			t.Errorf("%s: a second reopen lists %d campaigns, the first %d", at, len(again), len(got))
			return
		}
		for k := range got {
			if again[k].State != got[k].State || again[k].Canonical != got[k].Canonical || again[k].Reason != got[k].Reason {
				t.Errorf("%s: a second reopen changed %s from %s (%q) to %s (%q)", at, got[k].ID, got[k].State, got[k].Reason, again[k].State, again[k].Reason)
			}
		}
	}

	injected := int64(0)
	for i := first; i < n; i++ {
		fl := walkFlavors[int(i)%len(walkFlavors)]
		f := fl.fault
		f.AtIndex = i
		ff := vfs.NewFaultFS(vfs.OS, f)
		root := t.TempDir()
		_, _, _, serr := walkCampaign(t, root, ff, opts, spec)
		injected += ff.Injected()
		check(root, serr, fmt.Sprintf("op=%d fault=%s", i, fl.name))
	}
	if injected == 0 {
		t.Fatal("the walker injected nothing")
	}
	for i := first; i < n; i++ {
		keep := []float64{0, 0.5}[i%2]
		ff := vfs.NewFaultFS(vfs.OS)
		ff.CutAt(i, keep)
		root := t.TempDir()
		_, _, _, serr := walkCampaign(t, root, ff, opts, spec)
		check(root, serr, fmt.Sprintf("cut=%d keep=%g", i, keep))
	}
}

// TestRegistryTornAppendStaysFailed tears each write of one registry
// campaign's run with a short write. A tear the run cannot get past fails
// the campaign, and the journal takes nothing more: the Failed record goes
// through a fresh open, which truncates the tear first. Appended behind
// the tear, the record would be invisible to the reopen's scan, which
// stops there, and the campaign would come back Pending. So every
// campaign a tear failed, an episode append's included, reopens Failed
// with the Status it had, summary and reason included.
func TestRegistryTornAppendStaysFailed(t *testing.T) {
	spec := testSpec("acme", 1)
	opts := Options{Slots: 1, DisableAutostart: true}
	first, n, _, err := walkCampaign(t, t.TempDir(), vfs.NewFaultFS(vfs.OS), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	var failed []int64
	episodes := 0
	for i := first; i < n; i++ {
		ff := vfs.NewFaultFS(vfs.OS, vfs.Fault{Op: vfs.OpWrite, Path: "journal.wal", Err: vfs.EIO(), Short: true, AtIndex: i})
		root := t.TempDir()
		_, _, c, serr := walkCampaign(t, root, ff, opts, spec)
		if serr != nil || ff.Injected() == 0 || c.State() != StateFailed {
			continue // no tear, one Submit refused, or one the run got past
		}
		want := c.Status()
		failed = append(failed, i)
		if strings.HasPrefix(want.Reason, "execute: ") {
			episodes++
		}
		got := openTestRegistry(t, root, opts).List("")
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("op=%d: the failed campaign\n%+v\nreopened as\n%+v", i, want, got)
		}
	}
	t.Logf("tears at ops %v failed the campaign, %d of them in an episode append", failed, episodes)
	if episodes == 0 {
		t.Fatal("no torn episode append failed the campaign")
	}
}

// TestRegistryReopenWritesNothing opens a root of completed campaigns
// through a filesystem that fails every create, write, truncate, rename,
// remove, sync and directory sync. A reopen only reads each campaign's
// file, so every campaign still loads with every Status field it had. Each
// result record holds the canonical and the summary, and no structured
// trajectory.
func TestRegistryReopenWritesNothing(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(root, Options{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
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
	for _, st := range want {
		checkResultRecord(t, filepath.Join(root, st.ID, "journal.wal"))
	}

	var faults []vfs.Fault
	for _, op := range []vfs.Op{vfs.OpCreate, vfs.OpWrite, vfs.OpTruncate, vfs.OpRename, vfs.OpRemove, vfs.OpSync, vfs.OpSyncDir} {
		faults = append(faults, vfs.Fault{Op: op, Err: vfs.EIO(), Every: true})
	}
	fsys := vfs.NewFaultFS(vfs.OS, faults...)
	got := openTestRegistry(t, root, Options{FS: fsys, DisableAutostart: true}).List("")
	if len(got) != len(want) {
		t.Fatalf("reopened %d campaigns, want %d", len(got), len(want))
	}
	for i, st := range got {
		if st.State != StateCompleted || !reflect.DeepEqual(st, want[i]) {
			t.Errorf("%s reopened as %+v, was %+v", st.ID, st, want[i])
		}
	}
	if n := fsys.Injected(); n != 0 {
		t.Errorf("the reopen tried %d writes", n)
	}
}
