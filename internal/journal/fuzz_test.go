package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
)

// FuzzJournalRecord throws arbitrary bytes at Open: whatever the file
// holds, Open must recover a prefix or fail with a clean error — never
// panic, never hang. When it does open, the round-trip property must hold:
// appending an episode and reopening recovers exactly the recovered prefix
// plus the new episode.
func FuzzJournalRecord(f *testing.F) {
	// Seed corpus: a journal in the legacy checkpointed layout, its header
	// alone, torn and corrupted variants, and adversarial non-journals.
	seed := legacyJournal(f, "fuzz-fp",
		[]Episode{
			{Key: "a", Class: ClassOK, MS: 0.5, CostS: 1.5},
			{Key: "b", Class: ClassOK, MS: 1.5, CostS: 1.5},
			{Key: "c", Class: ClassOK, MS: 2.5, CostS: 1.5},
		},
		[]Episode{{Key: "d", Class: ClassPermanent, Err: "compile failed", CostS: 0.005}})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:frame.HeaderLen+3])
	mut := append([]byte(nil), seed...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte("go test fuzz corpus is not a journal"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		jr, err := Open(p, "fuzz-fp")
		if err != nil {
			// Any failure must be a wrapped journal error, never a panic
			// (a panic fails the fuzz run on its own).
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFingerprint) {
				t.Fatalf("unclassified open error: %v", err)
			}
			return
		}
		before := jr.Recovered()
		extra := Episode{Key: "fuzz-appended", Class: ClassOK, MS: 1, CostS: 1.503}
		if err := jr.Append(extra); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		jr.Close()
		jr2, err := Open(p, "fuzz-fp")
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer jr2.Close()
		after := jr2.Recovered()
		if len(after) != len(before)+1 {
			t.Fatalf("round trip: %d episodes before append, %d after", len(before), len(after))
		}
		for i := range before {
			if after[i] != before[i] {
				t.Fatalf("round trip changed episode %d: %+v != %+v", i, after[i], before[i])
			}
		}
		if after[len(after)-1] != extra {
			t.Fatalf("appended episode mangled: %+v", after[len(after)-1])
		}
	})
}
