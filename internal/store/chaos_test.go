package store

import (
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

// TestStoreDegradedReadOnly drives the store into read-only-degraded mode
// (segment creation refused with ENOSPC) and proves the degradation
// contract: Puts keep landing in the in-memory index (hits keep serving),
// drops are counted, Degraded()/Stats expose the mode, and the sticky write
// error surfaces from Close as the ENOSPC it was.
func TestStoreDegradedReadOnly(t *testing.T) {
	ff := vfs.NewFaultFS(vfs.OS, 0,
		vfs.Fault{Op: vfs.OpCreate, Path: ".seg", Err: vfs.ENoSpace(), Rate: 1})
	s, err := OpenFS(ff, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatal("store degraded before any write")
	}

	s.Put("arch0|shape0|a", 3)
	if !s.Degraded() {
		t.Fatal("segment-create ENOSPC did not degrade the store")
	}
	if ms, ok := s.Get("arch0|shape0|a"); !ok || ms != 3 {
		t.Fatalf("degraded store stopped serving its index: ok=%v ms=%g", ok, ms)
	}
	s.Put("arch0|shape0|b", 4)
	if ms, ok := s.Get("arch0|shape0|b"); !ok || ms != 4 {
		t.Fatalf("degraded store refused a post-degradation Put into the index: ok=%v ms=%g", ok, ms)
	}

	st := s.Stats()
	if st.WriteErr == "" || st.PutDrops != 2 {
		t.Fatalf("degradation not visible in stats: %+v", st)
	}
	if err := s.Close(); !vfs.IsNoSpace(err) {
		t.Fatalf("close surfaced %v, want the sticky ENOSPC", err)
	}
}
