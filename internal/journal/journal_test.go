package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.wal")
}

func mustCreate(t *testing.T, path, fp string) *Journal {
	t.Helper()
	j, err := Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func ep(key string, ms float64) Episode {
	return Episode{Key: key, Class: ClassOK, MS: ms, MSSum: ms, Attempts: 1, Calls: 1, CostS: 1.5 + 3*ms/1000}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp1")
	want := []Episode{
		ep("1,2,3", 4.5),
		{Key: "9,9,9", Class: ClassPermanent, Err: "bad setting", Attempts: 1, Calls: 1, CostS: 0.005},
		{Key: "1,2,4", Class: ClassTransient, Err: "flaky", Attempts: 3, Calls: 3, Transient: 3, BackoffS: 1.25, CostS: 1.255},
		{Key: "0,0,1", Class: ClassBudget, Err: "budget exhausted", Attempts: 1, Calls: 1, CostS: 0.005},
	}
	for _, e := range want {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if j.Records() != len(want) {
		t.Fatalf("Records = %d, want %d", j.Records(), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Recovered()
	if len(got) != len(want) {
		t.Fatalf("recovered %d episodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFingerprintMismatchRefused(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp-original")
	if err := j.Append(ep("1", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(path, "fp-different"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Open with wrong fingerprint: err = %v, want ErrFingerprint", err)
	}
	// Empty fingerprint skips the check (inspection tooling).
	r, err := Open(path, "")
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if r.Fingerprint() != "fp-original" {
		t.Fatalf("Fingerprint = %q", r.Fingerprint())
	}
}

func TestOpenOrCreate(t *testing.T) {
	path := tmpPath(t)
	j, err := OpenOrCreate(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Recovered()) != 0 {
		t.Fatal("fresh journal recovered episodes")
	}
	if err := j.Append(ep("1", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenOrCreate(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(j2.Recovered()) != 1 {
		t.Fatalf("recovered %d episodes, want 1", len(j2.Recovered()))
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp")
	j.SetCheckpointEvery(0) // manual checkpoints only
	var want []Episode
	for i := 0; i < 10; i++ {
		e := ep(string(rune('a'+i)), float64(i))
		want = append(want, e)
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := countFrames(t, path); got != 11 { // header + 10 episodes
		t.Fatalf("pre-checkpoint frames = %d, want 11", got)
	}
	if err := j.Checkpoint(Summary{Evaluations: 10, SpentS: 42}); err != nil {
		t.Fatal(err)
	}
	if got := countFrames(t, path); got != 2 { // header + checkpoint
		t.Fatalf("post-checkpoint frames = %d, want 2", got)
	}
	// Appends continue after the checkpoint rewrite.
	extra := ep("post-ckpt", 99)
	want = append(want, extra)
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Recovered()
	if len(got) != len(want) {
		t.Fatalf("recovered %d episodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func countFrames(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for off := 0; off < len(data); {
		_, next, err := frame.Next(data, off)
		if err != nil {
			t.Fatalf("frame %d at %d: %v", frames, off, err)
		}
		off = next
		frames++
	}
	return frames
}

func TestAutomaticCheckpointEvery(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp")
	j.SetCheckpointEvery(4)
	for i := 0; i < 10; i++ {
		if err := j.Append(ep(string(rune('a'+i)), float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := j.MaybeCheckpoint(Summary{Evaluations: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Checkpoints fired at episodes 4 and 8, so the file holds header +
	// checkpoint + episodes 9 and 10 — not the 11 frames of a raw log.
	if frames := countFrames(t, path); frames != 4 {
		t.Fatalf("automatic checkpoints did not compact: %d frames, want 4", frames)
	}
	r, err := Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Recovered()) != 10 {
		t.Fatalf("recovered %d episodes, want 10", len(r.Recovered()))
	}
}

func TestOnDurableHookFires(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp")
	var counts []int
	j.OnDurable = func(n int) { counts = append(counts, n) }
	for i := 0; i < 3; i++ {
		if err := j.Append(ep(string(rune('a'+i)), 1)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if len(counts) != 3 || counts[2] != 3 {
		t.Fatalf("OnDurable counts = %v", counts)
	}
}

func TestClosedJournalRefusesWrites(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp")
	j.Close()
	if err := j.Append(ep("a", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := j.Checkpoint(Summary{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// writeJournal builds a journal with n episodes and returns its raw bytes.
func writeJournal(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := tmpPath(t)
	j := mustCreate(t, path, "fp")
	for i := 0; i < n; i++ {
		if err := j.Append(ep(string(rune('a'+i)), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestCorruptionRecovery is the corruption table: every mutilation either
// recovers the intact prefix or fails with a clean typed error — never a
// panic, never silently-wrong episodes.
func TestCorruptionRecovery(t *testing.T) {
	_, data := writeJournal(t, 3)
	// Locate frame boundaries for surgical corruption.
	var bounds []int // offset of each frame start, then len(data)
	for off := 0; off < len(data); {
		bounds = append(bounds, off)
		_, next, err := frame.Next(data, off)
		if err != nil {
			t.Fatal(err)
		}
		off = next
	}
	bounds = append(bounds, len(data))
	if len(bounds) != 5 { // header + 3 episodes + EOF
		t.Fatalf("expected 4 frames, got %d", len(bounds)-1)
	}

	cases := []struct {
		name      string
		mutate    func([]byte) []byte
		recovered int  // episodes expected when err == nil
		corrupt   bool // expect ErrCorrupt
	}{
		{
			name:      "truncated tail mid-frame",
			mutate:    func(b []byte) []byte { return b[:bounds[3]+5] },
			recovered: 2,
		},
		{
			name:      "truncated at frame boundary",
			mutate:    func(b []byte) []byte { return b[:bounds[2]] },
			recovered: 1,
		},
		{
			name: "flipped CRC byte in last episode",
			mutate: func(b []byte) []byte {
				b[bounds[3]+4] ^= 0xff
				return b
			},
			recovered: 2,
		},
		{
			name: "flipped payload byte in middle episode drops the tail",
			mutate: func(b []byte) []byte {
				b[bounds[2]+frame.HeaderLen+2] ^= 0x01
				return b
			},
			recovered: 1,
		},
		{
			name: "zero-length record",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[bounds[3]:bounds[3]+4], 0)
				return b
			},
			recovered: 2,
		},
		{
			name: "implausible record length",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[bounds[3]:bounds[3]+4], 1<<30)
				return b
			},
			recovered: 2,
		},
		{
			name:    "corrupted header frame",
			mutate:  func(b []byte) []byte { b[frame.HeaderLen+1] ^= 0xff; return b },
			corrupt: true,
		},
		{
			name:    "empty file",
			mutate:  func(b []byte) []byte { return nil },
			corrupt: true,
		},
		{
			name:    "garbage file",
			mutate:  func(b []byte) []byte { return []byte("not a journal at all") },
			corrupt: true,
		},
		{
			name: "header frame holds a non-header record",
			mutate: func(b []byte) []byte {
				// Drop the header frame so an episode frame comes first.
				return b[bounds[1]:]
			},
			corrupt: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "mutant.wal")
			buf := append([]byte(nil), data...)
			if err := os.WriteFile(p, tc.mutate(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Open(p, "fp")
			if tc.corrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if got := len(j.Recovered()); got != tc.recovered {
				t.Fatalf("recovered %d episodes, want %d", got, tc.recovered)
			}
			// The torn tail was truncated: the journal must accept appends
			// and recover them on the next open.
			if err := j.Append(ep("appended-after-recovery", 7)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, err := Open(p, "fp")
			if err != nil {
				t.Fatalf("reopen after recovery append: %v", err)
			}
			defer j2.Close()
			rec := j2.Recovered()
			if len(rec) != tc.recovered+1 || rec[len(rec)-1].Key != "appended-after-recovery" {
				t.Fatalf("after recovery append, recovered %d episodes (last %+v)", len(rec), rec[len(rec)-1])
			}
		})
	}
}

// TestEveryPrefixOpensCleanly sweeps every byte-length prefix of a real
// journal: each either opens (recovering some prefix of the episodes, in
// order) or fails with a clean error. This is the byte-granular version of
// the crash model — a torn write can stop anywhere.
func TestEveryPrefixOpensCleanly(t *testing.T) {
	_, data := writeJournal(t, 5)
	lastRecovered := -1
	for n := 0; n <= len(data); n++ {
		p := filepath.Join(t.TempDir(), "prefix.wal")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(p, "fp")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "journal:") {
				t.Fatalf("prefix %d: unexpected error %v", n, err)
			}
			continue
		}
		rec := j.Recovered()
		j.Close()
		if len(rec) < lastRecovered {
			t.Fatalf("prefix %d: recovered %d episodes, shorter than a shorter prefix's %d", n, len(rec), lastRecovered)
		}
		lastRecovered = len(rec)
		for i, e := range rec {
			if e.Key != string(rune('a'+i)) {
				t.Fatalf("prefix %d: episode %d key %q", n, i, e.Key)
			}
		}
	}
	if lastRecovered != 5 {
		t.Fatalf("full file recovered %d episodes, want 5", lastRecovered)
	}
}
