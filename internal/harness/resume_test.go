package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/stencil"
)

// killFaults is the adversarial testbed the crash matrix runs under:
// transient failures, permanently-broken settings and timing noise, all
// seeded so every run observes the same schedule.
func killFaults() *faults.Config {
	return &faults.Config{
		Seed:               9,
		TransientRate:      0.20,
		MaxTransientPerKey: 2,
		PermanentRate:      0.10,
		NoiseFrac:          0.05,
	}
}

func resumeFixture(t testing.TB) *Fixture {
	t.Helper()
	fx, err := NewFixture(stencil.Helmholtz(), gpu.A100(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// snapshotter records the journal's on-disk bytes after every written
// record: each snapshot is one legal kill point (the file exactly as a
// SIGKILL immediately after that write would leave it — written bytes
// outlive the process, synced or not).
type snapshotter struct {
	mu    sync.Mutex
	path  string
	snaps [][]byte
}

func (s *snapshotter) hook(j *journal.Journal) {
	s.path = j.Path()
	j.OnAppend = func(int) {
		data, err := os.ReadFile(s.path)
		if err != nil {
			panic(err)
		}
		s.mu.Lock()
		s.snaps = append(s.snaps, data)
		s.mu.Unlock()
	}
}

// runGolden runs one uninterrupted journaled campaign, returning its
// canonical result and the byte snapshot at every record boundary.
func runGolden(t *testing.T, fx *Fixture, cfg CampaignConfig) (*CampaignResult, [][]byte) {
	t.Helper()
	snap := &snapshotter{}
	cfg.JournalPath = filepath.Join(t.TempDir(), "golden.wal")
	cfg.OnJournal = snap.hook
	res, err := RunCampaign(context.Background(), fx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.snaps) == 0 {
		t.Fatal("golden campaign journaled nothing")
	}
	return res, snap.snaps
}

// resumeFrom writes one kill-point snapshot to a fresh path and resumes
// the campaign from it.
func resumeFrom(t *testing.T, fx *Fixture, cfg CampaignConfig, dir string, snap []byte) (*CampaignResult, error) {
	t.Helper()
	cfg.JournalPath = filepath.Join(dir, "resume.wal")
	cfg.OnJournal = nil
	if err := os.WriteFile(cfg.JournalPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	return RunCampaign(context.Background(), fx, cfg)
}

// TestCampaignResumeKillMatrix is the acceptance matrix: a csTuner campaign
// under the fault testbed, killed after every written record, must resume
// to a byte-identical canonical result — best setting, stats, trajectory
// and quarantine.
func TestCampaignResumeKillMatrix(t *testing.T) {
	fx := resumeFixture(t)
	base := CampaignConfig{
		Method:     "cstuner",
		BudgetS:    30,
		Seed:       5,
		Faults:     killFaults(),
		Quarantine: 1, // every permanently-broken setting lands in quarantine
	}
	golden, snaps := runGolden(t, fx, base)
	want := golden.Canonical()
	if !golden.Found {
		t.Fatal("golden campaign found no best")
	}
	if golden.Stats.Quarantined == 0 || golden.Stats.Transient == 0 {
		t.Fatalf("testbed too tame to prove anything: %+v", golden.Stats)
	}

	stride := 1
	if testing.Short() {
		stride = 5
	}
	for i := 0; i < len(snaps); i += stride {
		res, err := resumeFrom(t, fx, base, t.TempDir(), snaps[i])
		if err != nil {
			t.Fatalf("kill=%d/%d: %v", i, len(snaps), err)
		}
		if got := res.Canonical(); got != want {
			t.Fatalf("kill=%d/%d: resumed result diverged\n got: %s\nwant: %s",
				i, len(snaps), got, want)
		}
		if i > 0 && res.Replayed == 0 {
			t.Fatalf("kill=%d: resume replayed nothing", i)
		}
	}
}

// TestCampaignResumeAllMethods kills each of the four tuners mid-run and
// checks the resumed canonical result against the uninterrupted one.
func TestCampaignResumeAllMethods(t *testing.T) {
	fx := resumeFixture(t)
	for _, method := range []string{"cstuner", "opentuner", "garvey", "artemis"} {
		t.Run(method, func(t *testing.T) {
			base := CampaignConfig{
				Method:  method,
				BudgetS: 25,
				Seed:    3,
				Faults:  killFaults(),
			}
			golden, snaps := runGolden(t, fx, base)
			want := golden.Canonical()
			res, err := resumeFrom(t, fx, base, t.TempDir(), snaps[len(snaps)/2])
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Canonical(); got != want {
				t.Fatalf("resumed %s diverged\n got: %s\nwant: %s", method, got, want)
			}
			if res.Replayed == 0 {
				t.Fatal("mid-run resume replayed nothing")
			}
		})
	}
}

// TestCampaignJournalOffUnchanged proves journaling is observationally
// inert: a fault-free campaign with a journal produces the same canonical
// result as one without.
func TestCampaignJournalOffUnchanged(t *testing.T) {
	fx := resumeFixture(t)
	base := CampaignConfig{Method: "cstuner", BudgetS: 20, Seed: 2}
	plain, err := RunCampaign(context.Background(), fx, base)
	if err != nil {
		t.Fatal(err)
	}
	journaled := base
	journaled.JournalPath = filepath.Join(t.TempDir(), "run.wal")
	withJr, err := RunCampaign(context.Background(), fx, journaled)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Canonical() != withJr.Canonical() {
		t.Fatalf("journaling changed the run\n off: %s\n  on: %s", plain.Canonical(), withJr.Canonical())
	}
}

// TestCampaignResumePrefixSweep hands the campaign every byte-length prefix
// (strided) of a finished journal — torn anywhere, not just at record
// boundaries. Each prefix must either resume to the golden result or fail
// with a clean corruption error; nothing in between, never a panic.
func TestCampaignResumePrefixSweep(t *testing.T) {
	fx := resumeFixture(t)
	base := CampaignConfig{
		Method:  "cstuner",
		BudgetS: 20,
		Seed:    4,
		Faults:  killFaults(),
	}
	golden, snaps := runGolden(t, fx, base)
	want := golden.Canonical()
	full := snaps[len(snaps)-1]

	stride := 41
	if testing.Short() {
		stride = 211
	}
	for n := 0; n <= len(full); n += stride {
		res, err := resumeFrom(t, fx, base, t.TempDir(), full[:n])
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) {
				t.Fatalf("prefix %d/%d: unclean failure: %v", n, len(full), err)
			}
			continue
		}
		if got := res.Canonical(); got != want {
			t.Fatalf("prefix %d/%d: resumed result diverged\n got: %s\nwant: %s", n, len(full), got, want)
		}
	}
	// The complete file must resume, not error.
	res, err := resumeFrom(t, fx, base, t.TempDir(), full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Canonical() != want {
		t.Fatalf("full-journal resume diverged")
	}
}

// TestCampaignFingerprintMismatchRefused: a journal from a different
// campaign (other seed) must be refused with ErrFingerprint, not silently
// replayed into the wrong run.
func TestCampaignFingerprintMismatchRefused(t *testing.T) {
	fx := resumeFixture(t)
	base := CampaignConfig{Method: "garvey", BudgetS: 10, Seed: 6}
	_, snaps := runGolden(t, fx, base)

	other := base
	other.Seed = 7
	_, err := resumeFrom(t, fx, other, t.TempDir(), snaps[len(snaps)-1])
	if !errors.Is(err, journal.ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
}
