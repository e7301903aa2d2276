package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestOSPassThrough exercises every FS method of the production
// implementation against a real temp dir.
func TestOSPassThrough(t *testing.T) {
	dir := t.TempDir()
	if err := OS.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	p := filepath.Join(dir, "a", "b", "f.txt")
	f, err := OS.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := f.Read(buf)
	if string(buf[:n]) != "hello" {
		t.Fatalf("Read after truncate = %q, want %q", buf[:n], "hello")
	}
	if f.Name() != p {
		t.Fatalf("Name = %q, want %q", f.Name(), p)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if b, err := OS.ReadFile(p); err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if fi, err := OS.Stat(p); err != nil || fi.Size() != 5 {
		t.Fatalf("Stat = %v, %v", fi, err)
	}
	p2 := filepath.Join(dir, "a", "b", "g.txt")
	if err := OS.Rename(p, p2); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if err := SyncDirOf(OS, p2); err != nil {
		t.Fatalf("SyncDirOf: %v", err)
	}
	ents, err := OS.ReadDir(filepath.Join(dir, "a", "b"))
	if err != nil || len(ents) != 1 || ents[0].Name() != "g.txt" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Remove(p2); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := OS.Stat(p2); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Stat after Remove: %v, want not-exist", err)
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != OS {
		t.Fatal("Or(nil) != OS")
	}
	ff := NewFaultFS(OS)
	if Or(ff) != FS(ff) {
		t.Fatal("Or(ff) != ff")
	}
}

func TestIsNoSpace(t *testing.T) {
	if !IsNoSpace(ENoSpace()) {
		t.Fatal("ENoSpace not classified")
	}
	if !IsNoSpace(syscall.ENOSPC) {
		t.Fatal("raw ENOSPC not classified")
	}
	if IsNoSpace(EIO()) {
		t.Fatal("EIO misclassified as no-space")
	}
	if !errors.Is(EIO(), syscall.EIO) || !errors.Is(EIO(), ErrInjected) {
		t.Fatal("EIO should wrap both syscall.EIO and ErrInjected")
	}
}

// TestFaultAtIndex proves a rule without Every fires exactly once, at the
// named global op index, and nowhere else.
func TestFaultAtIndex(t *testing.T) {
	dir := t.TempDir()
	// Count the ops of the reference workload first.
	count := NewFaultFS(OS)
	workload := func(fsys FS, root string) error {
		f, err := fsys.OpenFile(filepath.Join(root, "x"), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("abc")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return fsys.Rename(filepath.Join(root, "x"), filepath.Join(root, "y"))
	}
	if err := workload(count, dir); err != nil {
		t.Fatalf("clean workload: %v", err)
	}
	n := count.Ops()
	if n != 5 {
		t.Fatalf("Ops = %d, want 5 (create, write, sync, close, rename)", n)
	}
	for i := int64(0); i < n; i++ {
		sub := filepath.Join(dir, "run")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		ff := NewFaultFS(OS, Fault{Err: EIO(), AtIndex: i})
		if err := workload(ff, sub); !errors.Is(err, ErrInjected) {
			t.Fatalf("index %d: err = %v, want injected", i, err)
		}
		if ff.Injected() != 1 {
			t.Fatalf("index %d: injected = %d, want 1", i, ff.Injected())
		}
		if err := os.RemoveAll(sub); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultMatching checks Op and Path filters restrict where a rule fires,
// and that an Every rule fires on every matching op.
func TestFaultMatching(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OS,
		Fault{Op: OpSync, Err: EIO(), Every: true},
		Fault{Op: OpWrite, Path: "store", Err: ENoSpace(), Every: true},
	)
	f, err := ff.OpenFile(filepath.Join(dir, "journal.wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write to non-store path should pass: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := f.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %d should inject EIO, got %v", i, err)
		}
	}
	_ = f.Close()
	g, err := ff.OpenFile(filepath.Join(dir, "store.seg"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := g.Write([]byte("x")); !IsNoSpace(err) {
		t.Fatalf("store write should inject ENOSPC, got %v", err)
	}
	_ = g.Close()
}

// TestShortWrite proves a Short fault lands half the payload before failing.
func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	ff := NewFaultFS(OS, Fault{Op: OpWrite, Err: EIO(), AtIndex: 1, Short: true})
	f, err := ff.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if n != 4 {
		t.Fatalf("n = %d, want 4 (half of 8)", n)
	}
	_ = f.Close()
	b, rerr := os.ReadFile(p)
	if rerr != nil || string(b) != "1234" {
		t.Fatalf("on-disk = %q, %v; want %q", b, rerr, "1234")
	}
}

// TestPowerCut proves the power-loss model: bytes synced before the cut
// survive, buffered-but-unsynced bytes vanish (keep=0) or tear (0<keep<1),
// and every operation after the cut fails with ErrPowerCut.
func TestPowerCut(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "wal")
	ff := NewFaultFS(OS)
	f, err := ff.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o644) // op 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable|")); err != nil { // op 1
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("buffered")); err != nil { // op 3
		t.Fatal(err)
	}
	ff.CutAt(4, 0)
	if err := f.Sync(); !errors.Is(err, ErrPowerCut) { // op 4: too late
		t.Fatalf("sync after cut = %v, want ErrPowerCut", err)
	}
	if _, err := f.Write([]byte("more")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write after cut = %v, want ErrPowerCut", err)
	}
	if _, err := ff.OpenFile(p, os.O_RDONLY, 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("open after cut should fail with ErrPowerCut")
	}
	// The "machine restarts": read with a fresh FS. Unsynced bytes are gone.
	b, rerr := os.ReadFile(p)
	if rerr != nil || string(b) != "durable|" {
		t.Fatalf("after cut on-disk = %q, %v; want %q", b, rerr, "durable|")
	}
}

// TestPowerCutKeepFraction checks the torn-tail variant: keep=0.5 leaves
// half the unsynced bytes — a partially persisted frame.
func TestPowerCutKeepFraction(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "wal")
	ff := NewFaultFS(OS)
	f, err := ff.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("SYNCED")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	ff.CutAt(4, 0.5)
	if err := f.Close(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("close after cut = %v, want ErrPowerCut", err)
	}
	b, rerr := os.ReadFile(p)
	if rerr != nil || string(b) != "SYNCEDunsy" {
		t.Fatalf("after keep=0.5 cut = %q, %v; want %q (6 synced + 4 of 8 unsynced)", b, rerr, "SYNCEDunsy")
	}
}

// TestPowerCutFollowsRename proves the durability track follows a file
// across rename: unsynced bytes written to the tmp name are dropped from
// the final name.
func TestPowerCutFollowsRename(t *testing.T) {
	dir := t.TempDir()
	tmp, final := filepath.Join(dir, "f.tmp"), filepath.Join(dir, "f")
	ff := NewFaultFS(OS)
	f, err := ff.OpenFile(tmp, os.O_WRONLY|os.O_CREATE, 0o644) // op 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("synced")); err != nil { // op 1
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("lost")); err != nil { // op 3
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // op 4
		t.Fatal(err)
	}
	if err := ff.Rename(tmp, final); err != nil { // op 5
		t.Fatal(err)
	}
	ff.CutAt(6, 0)
	if err := ff.SyncDir(dir); !errors.Is(err, ErrPowerCut) { // op 6
		t.Fatalf("syncdir after cut = %v, want ErrPowerCut", err)
	}
	b, rerr := os.ReadFile(final)
	if rerr != nil || string(b) != "synced" {
		t.Fatalf("renamed file after cut = %q, %v; want %q", b, rerr, "synced")
	}
}

// TestPowerCutExistingBytesDurable: bytes already on disk when a file is
// opened for append count as durable — only bytes written through the FS
// and never synced are at risk.
func TestPowerCutExistingBytesDurable(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	ff := NewFaultFS(OS)
	f, err := ff.OpenFile(p, os.O_RDWR, 0) // op 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 2); err != nil { // op 1: seek to end
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("new")); err != nil { // op 2
		t.Fatal(err)
	}
	ff.CutAt(3, 0)
	if err := f.Sync(); !errors.Is(err, ErrPowerCut) { // op 3
		t.Fatal("expected cut")
	}
	b, rerr := os.ReadFile(p)
	if rerr != nil || string(b) != "old" {
		t.Fatalf("after cut = %q, %v; want %q", b, rerr, "old")
	}
}
