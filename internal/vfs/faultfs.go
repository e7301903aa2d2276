package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// ErrInjected tags every fault FaultFS injects, so tests can tell an
// injected failure from a real one.
var ErrInjected = errors.New("vfs: injected fault")

// ErrPowerCut is returned by every operation after the power-loss cut
// point: the machine is "off", and the only way forward is to re-open the
// directory with a fresh FS — exactly like a real restart.
var ErrPowerCut = errors.New("vfs: power lost")

// EIO returns an injected I/O error (wraps syscall.EIO, so errors.Is
// matches real disk errors of the same class).
func EIO() error { return fmt.Errorf("%w: %w", ErrInjected, syscall.EIO) }

// ENoSpace returns an injected disk-full error (wraps syscall.ENOSPC;
// IsNoSpace matches it, and the service layer maps it to 507).
func ENoSpace() error { return fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC) }

// Fault is one injection rule. Matching is by operation class and path
// substring; a matching rule fires either on every matching operation
// (Every) or exactly once, at global op index AtIndex (the fault-point
// walker's mode).
type Fault struct {
	// Op restricts the rule to one operation class ("" = any).
	Op Op
	// Path restricts the rule to paths containing this substring ("" = any).
	Path string
	// Err is the injected error. Use EIO()/ENoSpace() for errno-class
	// faults; any non-nil error works.
	Err error
	// Every fires the rule on every matching operation. Without it the rule
	// fires exactly once, at global op index AtIndex.
	Every bool
	// AtIndex is the global op index to fire at when Every is false.
	AtIndex int64
	// Short turns a firing write fault into a short write: half the payload
	// reaches the file, then Err is returned — the torn-frame generator.
	Short bool
}

// wtrack follows one write-opened file's durability state for the
// power-loss model: size is the file's current length, synced the length
// known durable (last successful Sync, or the length at open for
// pre-existing bytes). Tracks outlive Close — closing without syncing does
// not make bytes durable — and follow the file across Rename.
type wtrack struct {
	path   string
	size   int64
	synced int64
}

// FaultFS wraps an inner FS with deterministic fault injection and a
// power-loss model. Every operation (FS methods and File methods on files
// it opened) consumes one global op index; Ops() after a clean run is the
// enumerable fault-point count the walker sweeps.
//
// Op indices are deterministic exactly when the workload issues its
// filesystem operations in a deterministic order — true for a single
// campaign (journal appends and store publishes happen in accounting
// order), not across concurrently-running campaigns. Concurrent workloads
// should use Every rules, which don't depend on global ordering.
type FaultFS struct {
	inner  FS
	faults []Fault

	ops      atomic.Int64
	injected atomic.Int64

	mu      sync.Mutex
	track   map[string]*wtrack
	cutAt   int64 // power-loss op index; < 0 = disarmed
	cutKeep float64
	cutDone bool
}

// NewFaultFS wraps inner. With no fault rules it is a pure op counter —
// the walker's enumeration pass.
func NewFaultFS(inner FS, faults ...Fault) *FaultFS {
	return &FaultFS{inner: inner, faults: faults, track: map[string]*wtrack{}, cutAt: -1}
}

// Ops returns the number of operations performed so far.
func (f *FaultFS) Ops() int64 { return f.ops.Load() }

// Injected returns the number of faults injected so far (power-cut
// refusals excluded).
func (f *FaultFS) Injected() int64 { return f.injected.Load() }

// CutAt arms the power-loss model: at global op index at, every file's
// buffered-but-unsynced bytes are dropped — each tracked file is truncated
// back to synced + keep·(size-synced), so keep 0 models a clean cut at the
// last fsync and 0 < keep < 1 models a torn in-flight frame — and that
// operation and every later one fail with ErrPowerCut.
func (f *FaultFS) CutAt(at int64, keep float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if keep < 0 {
		keep = 0
	}
	if keep > 1 {
		keep = 1
	}
	f.cutAt, f.cutKeep = at, keep
}

// step assigns the next op index and applies the power-cut and fault rules
// for one operation. It returns the fired fault (nil for a clean op) and
// the error to inject.
func (f *FaultFS) step(op Op, path string) (*Fault, error) {
	idx := f.ops.Add(1) - 1
	f.mu.Lock()
	if f.cutAt >= 0 && idx >= f.cutAt {
		if !f.cutDone {
			f.cutDone = true
			f.powerCutLocked()
		}
		f.mu.Unlock()
		return nil, ErrPowerCut
	}
	f.mu.Unlock()
	for i := range f.faults {
		fl := &f.faults[i]
		if fl.Op != "" && fl.Op != op {
			continue
		}
		if fl.Path != "" && !strings.Contains(path, fl.Path) {
			continue
		}
		if !fl.Every && idx != fl.AtIndex {
			continue
		}
		f.injected.Add(1)
		return fl, fl.Err
	}
	return nil, nil
}

// powerCutLocked drops unsynced bytes: every tracked file is truncated to
// its durable length plus the kept fraction of its unsynced tail. Callers
// hold f.mu.
func (f *FaultFS) powerCutLocked() {
	for _, w := range f.track {
		target := w.synced + int64(f.cutKeep*float64(w.size-w.synced))
		if target >= w.size {
			continue
		}
		fh, err := f.inner.OpenFile(w.path, os.O_RDWR, 0o644)
		if err != nil {
			continue // renamed away or already gone; nothing to lose
		}
		_ = fh.Truncate(target)
		_ = fh.Close()
	}
}

// trackOpenLocked registers (or refreshes) the durability track for a file
// opened writable. Callers hold f.mu.
func (f *FaultFS) trackOpenLocked(path string, flag int) *wtrack {
	w := f.track[path]
	if w == nil {
		w = &wtrack{path: path}
		f.track[path] = w
	}
	switch {
	case flag&os.O_TRUNC != 0:
		w.size, w.synced = 0, 0
	default:
		if fi, err := f.inner.Stat(path); err == nil {
			// Pre-existing bytes count as durable: the model charges only
			// bytes written through this FS and never synced.
			w.size, w.synced = fi.Size(), fi.Size()
		} else {
			w.size, w.synced = 0, 0
		}
	}
	return w
}

// OpenFile opens through the seam, classifying creation separately and
// registering writable files with the power-loss tracker.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpOpen
	if flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if _, err := f.step(op, name); err != nil {
		return nil, opErr(op, name, err)
	}
	fh, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ff := &faultFile{fs: f, f: fh, name: name}
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		f.mu.Lock()
		ff.w = f.trackOpenLocked(name, flag)
		f.mu.Unlock()
	}
	return ff, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if _, err := f.step(OpReadFile, name); err != nil {
		return nil, opErr(OpReadFile, name, err)
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := f.step(OpReadDir, name); err != nil {
		return nil, opErr(OpReadDir, name, err)
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.step(OpRename, oldpath); err != nil {
		return opErr(OpRename, oldpath, err)
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if w := f.track[oldpath]; w != nil {
		delete(f.track, oldpath)
		w.path = newpath
		f.track[newpath] = w // replaces the overwritten file's track, like the rename itself
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.step(OpRemove, name); err != nil {
		return opErr(OpRemove, name, err)
	}
	if err := f.inner.Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.track, name)
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.step(OpMkdirAll, path); err != nil {
		return opErr(OpMkdirAll, path, err)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Stat(name string) (os.FileInfo, error) {
	if _, err := f.step(OpStat, name); err != nil {
		return nil, opErr(OpStat, name, err)
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if _, err := f.step(OpSyncDir, dir); err != nil {
		return opErr(OpSyncDir, dir, err)
	}
	return f.inner.SyncDir(dir)
}

// opErr stamps an injected error with its operation and path so walker
// failures read like a syscall trace.
func opErr(op Op, path string, err error) error {
	return fmt.Errorf("%s %s: %w", op, filepath.Base(path), err)
}

// faultFile threads File operations back through the fault matrix and
// keeps the power-loss track current.
type faultFile struct {
	fs   *FaultFS
	f    File
	name string
	w    *wtrack // nil for read-only opens
	off  int64
}

func (ff *faultFile) Name() string { return ff.name }

func (ff *faultFile) Read(p []byte) (int, error) {
	if _, err := ff.fs.step(OpRead, ff.name); err != nil {
		return 0, opErr(OpRead, ff.name, err)
	}
	n, err := ff.f.Read(p)
	ff.off += int64(n)
	return n, err
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fl, err := ff.fs.step(OpWrite, ff.name)
	if err != nil && (fl == nil || !fl.Short) {
		return 0, opErr(OpWrite, ff.name, err)
	}
	if fl != nil && fl.Short {
		// Short write: half the payload lands, then the error surfaces —
		// the frame-tearing fault CRC framing exists to survive.
		n, werr := ff.f.Write(p[:len(p)/2])
		ff.advance(n)
		if werr != nil {
			return n, werr
		}
		return n, opErr(OpWrite, ff.name, err)
	}
	n, werr := ff.f.Write(p)
	ff.advance(n)
	return n, werr
}

// advance moves the handle offset and grows the tracked file size.
func (ff *faultFile) advance(n int) {
	ff.off += int64(n)
	if ff.w == nil {
		return
	}
	ff.fs.mu.Lock()
	if ff.off > ff.w.size {
		ff.w.size = ff.off
	}
	ff.fs.mu.Unlock()
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if _, err := ff.fs.step(OpSeek, ff.name); err != nil {
		return 0, opErr(OpSeek, ff.name, err)
	}
	pos, err := ff.f.Seek(offset, whence)
	if err == nil {
		ff.off = pos
	}
	return pos, err
}

func (ff *faultFile) Truncate(size int64) error {
	if _, err := ff.fs.step(OpTruncate, ff.name); err != nil {
		return opErr(OpTruncate, ff.name, err)
	}
	if err := ff.f.Truncate(size); err != nil {
		return err
	}
	if ff.w != nil {
		ff.fs.mu.Lock()
		ff.w.size = size
		if ff.w.synced > size {
			ff.w.synced = size
		}
		ff.fs.mu.Unlock()
	}
	return nil
}

func (ff *faultFile) Sync() error {
	if _, err := ff.fs.step(OpSync, ff.name); err != nil {
		return opErr(OpSync, ff.name, err)
	}
	if err := ff.f.Sync(); err != nil {
		return err
	}
	if ff.w != nil {
		ff.fs.mu.Lock()
		ff.w.synced = ff.w.size
		ff.fs.mu.Unlock()
	}
	return nil
}

func (ff *faultFile) Close() error {
	if _, err := ff.fs.step(OpClose, ff.name); err != nil {
		// The handle still closes underneath: an injected close failure
		// models fsync-on-close trouble, not a leaked descriptor.
		_ = ff.f.Close()
		return opErr(OpClose, ff.name, err)
	}
	// The track stays registered: closing without syncing does not make
	// bytes durable, and a later power cut must still drop them.
	return ff.f.Close()
}

var _ io.ReadWriteSeeker = (*faultFile)(nil)
