// Package vfs is the filesystem seam under every durable subsystem: the
// campaign journal (internal/journal), the shared result store
// (internal/store) and the campaign registry (internal/campaign) perform
// every filesystem operation through the FS interface here instead of
// calling os.* directly (a discipline enforced statically by cstlint's
// rawfs analyzer).
//
// Two implementations ship:
//
//   - OS, the pass-through production implementation over the real
//     filesystem, and
//   - FaultFS (faultfs.go), a deterministic, seeded fault injector that
//     turns "what happens when the disk misbehaves" from folklore into a
//     sweepable test axis: EIO, ENOSPC, short writes, fsync failures,
//     rename failures — each a pure function of (seed, op, path, op index)
//     — plus a power-loss model that drops or truncates buffered-but-
//     unsynced bytes at a chosen cut point.
//
// The interface is deliberately narrow: exactly the operations the three
// durable subsystems use (open/create-exclusive/read/write/sync/rename/
// remove/readdir/stat/mkdir plus directory fsync as a first-class op), not
// a general filesystem abstraction. Narrowness is what makes the fault
// matrix enumerable: a fault-point walker can count every operation a
// campaign performs and re-run the campaign with a fault injected at each
// one (see internal/campaign's chaos tests).
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Op names one filesystem operation class for fault matching and op
// accounting. Every FS and File method maps to exactly one Op.
type Op string

// The operation classes. OpCreate is OpenFile with os.O_CREATE set —
// creation is the interesting failure class (ENOSPC on a full disk, EEXIST
// races), so it is matchable separately from plain opens.
const (
	OpOpen     Op = "open"
	OpCreate   Op = "create"
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpSeek     Op = "seek"
	OpTruncate Op = "truncate"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpReadFile Op = "readfile"
	OpReadDir  Op = "readdir"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpMkdirAll Op = "mkdirall"
	OpStat     Op = "stat"
	OpSyncDir  Op = "syncdir"
)

// File is the open-file surface the durable subsystems use. *os.File
// implements it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	// Truncate cuts the file to size bytes (journal torn-tail recovery).
	Truncate(size int64) error
	// Sync fsyncs file contents and metadata.
	Sync() error
	// Close releases the handle.
	Close() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem seam. Implementations must be safe for concurrent
// use; the journal, store and registry all call in under their own locks
// from several goroutines.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile is os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// Rename is os.Rename — the atomic-replace primitive of the
	// registry's JSON writes and of every quarantine.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// Stat is os.Stat.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs the directory itself, making a rename or create inside
	// it durable. A first-class operation — not a convenience helper — so
	// fault injection can target it and callers can count its failures
	// instead of silently dropping them.
	SyncDir(dir string) error
}

// OS is the production FS: a stateless pass-through to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		// Some filesystems refuse directory fsync (EINVAL); that is the
		// platform's durability ceiling, not a fault worth degrading over.
		if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) {
			return nil
		}
		return serr
	}
	return cerr
}

// SyncDirOf fsyncs the directory containing path — the usual call shape
// after an atomic rename of path into place.
func SyncDirOf(fsys FS, path string) error {
	return fsys.SyncDir(filepath.Dir(path))
}

// Or returns fsys, or OS when fsys is nil — the default-filling idiom every
// FS-carrying options struct uses.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// IsNoSpace reports whether err is ENOSPC-class: a real disk-full error or
// an injected one (both wrap syscall.ENOSPC). The service layer maps these
// submit failures to 507 Insufficient Storage.
func IsNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}
