package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/vfs"
)

// syncCost is the modelled price of one fsync or directory fsync. The
// benchmark may only write inside its checkout, whose disk is unknown: on an
// ext4 VM disk the fsync time of one run varied by more than 2×, and on tmpfs
// fsync is free, so journal cost vanishes. A fixed 1 ms keeps every fsync
// visible and the runs comparable.
const syncCost = time.Millisecond

// payEvery is how much modelled fsync time a run owes before it sleeps it
// off. A 1 ms sleep took 1.09 ms on an idle reference VM and 1.6 ms on
// average with the other core busy, and a campaign issues hundreds of
// fsyncs, so sleeping per call would
// measure the host's timer latency. Sleeping in larger installments, and
// crediting each installment's overshoot against the next, makes a run's
// total modelled disk time its fsync count times syncCost.
const payEvery = 10 * time.Millisecond

// disk is the benchmark's filesystem seam under every registry root: reads
// and writes pass through to the real filesystem, while Sync and SyncDir are
// charged syncCost instead of reaching the device. The program still issues
// every fsync its durability contract requires; only its price is modelled.
// With a tracer it also records each Write, Sync, SyncDir and Rename,
// classified by the file it touches.
type disk struct {
	root  string // registry root; the first path element below it is the run id
	tr    *tracer
	phase int64 // span the operations are recorded under

	mu    sync.Mutex
	debts map[string]*debt // modelled fsync time owed, per run directory
}

type debt struct {
	mu   sync.Mutex
	owed time.Duration
}

// charge adds cost to the debt of the run that owns path and, once the debt
// reaches threshold, sleeps it off.
func (d *disk) charge(path string, cost, threshold time.Duration) {
	run := d.runOf(path)
	d.mu.Lock()
	if d.debts == nil {
		d.debts = map[string]*debt{}
	}
	a := d.debts[run]
	if a == nil {
		a = &debt{}
		d.debts[run] = a
	}
	d.mu.Unlock()

	a.mu.Lock()
	a.owed += cost
	due := a.owed
	if due < threshold || due <= 0 {
		a.mu.Unlock()
		return
	}
	a.owed = 0
	a.mu.Unlock()
	start := time.Now()
	time.Sleep(due)
	a.mu.Lock()
	a.owed -= time.Since(start) - due // credit the overshoot
	a.mu.Unlock()
}

func (d *disk) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := vfs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, d: d, name: name}, nil
}

func (d *disk) ReadFile(name string) ([]byte, error)         { return vfs.OS.ReadFile(name) }
func (d *disk) ReadDir(name string) ([]os.DirEntry, error)   { return vfs.OS.ReadDir(name) }
func (d *disk) Remove(name string) error                     { return vfs.OS.Remove(name) }
func (d *disk) MkdirAll(path string, perm os.FileMode) error { return vfs.OS.MkdirAll(path, perm) }
func (d *disk) Stat(name string) (os.FileInfo, error)        { return vfs.OS.Stat(name) }

func (d *disk) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := vfs.OS.Rename(oldpath, newpath)
	d.record("rename", newpath, start, 0, err)
	return err
}

func (d *disk) SyncDir(dir string) error {
	start := time.Now()
	d.charge(dir, syncCost, payEvery)
	d.record("syncdir", dir, start, 0, nil)
	return nil
}

func (d *disk) record(op, path string, start time.Time, n int64, err error) {
	if d.tr == nil {
		return
	}
	d.tr.add(span{Name: "disk." + fileClass(path) + "." + op, Run: d.runOf(path), Parent: d.phase, Bytes: n, Err: err != nil}, start, time.Now())
}

// runOf maps a path under the root to the campaign (or run) directory that
// holds it; "" for the root itself and for the store.
func (d *disk) runOf(path string) string {
	rel, err := filepath.Rel(d.root, path)
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		return ""
	}
	first, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
	if first == "store" {
		return ""
	}
	return first
}

// fileClass names the subsystem a path belongs to: the campaign journal, a
// result-store segment, the registry's campaign JSON files, or a directory.
func fileClass(path string) string {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "journal.wal"):
		return "journal"
	case strings.HasPrefix(base, "seg-"):
		return "store"
	case strings.HasSuffix(base, ".json") || strings.HasSuffix(base, ".json.tmp"):
		return "campaign"
	}
	return "dir"
}

type diskFile struct {
	vfs.File
	d    *disk
	name string
}

func (f *diskFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.d.record("write", f.name, start, int64(n), err)
	return n, err
}

func (f *diskFile) Sync() error {
	start := time.Now()
	f.d.charge(f.name, syncCost, payEvery)
	f.d.record("sync", f.name, start, 0, nil)
	return nil
}

// Close settles what the run still owes when its journal closes, so a
// campaign's modelled disk time lands inside the campaign.
func (f *diskFile) Close() error {
	if fileClass(f.name) == "journal" {
		f.d.charge(f.name, 0, 0)
	}
	return f.File.Close()
}

var _ vfs.FS = (*disk)(nil)
