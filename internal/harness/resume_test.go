package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/baselines/cstuner"
	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// brokenTenth fails a fixed, hash-selected tenth of the settings the
// simulator measures with a plain error: a deterministic compile failure,
// which the journal records as permanent, unlike a constraint rejection.
// The crash matrices wrap their campaigns in it (CampaignConfig.Wrap) so
// that every journaled outcome class is killed and resumed.
type brokenTenth struct{ sim.Objective }

func (b brokenTenth) Measure(s space.Setting) (float64, error) {
	ms, err := b.Objective.Measure(s)
	if err == nil && stats.Mix64(stats.KeyHash(s.Key()))%10 == 0 {
		return 0, errors.New("compile failed")
	}
	return ms, err
}

// Architecture forwards the GPU model so codegen survives the wrapper.
func (b brokenTenth) Architecture() *gpu.Arch { return sim.ArchOf(b.Objective) }

func withBrokenTenth(obj sim.Objective) sim.Objective { return brokenTenth{obj} }

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

// journalClasses counts the records of a journal snapshot by class.
func journalClasses(t *testing.T, snap []byte) map[string]int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "classes.wal")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	classes := map[string]int{}
	for _, r := range j.Recovered() {
		classes[r.Class]++
	}
	return classes
}

// TestCampaignResumeKillMatrix is the acceptance matrix: a csTuner campaign
// whose objective fails a tenth of its settings, killed after every written
// record, must resume to a byte-identical canonical result — best setting,
// stats and trajectory.
func TestCampaignResumeKillMatrix(t *testing.T) {
	fx := resumeFixture(t)
	base := CampaignConfig{
		Method:  "cstuner",
		BudgetS: 30,
		Seed:    5,
		Wrap:    withBrokenTenth,
	}
	golden, snaps := runGolden(t, fx, base)
	want := golden.Canonical()
	if !golden.Found {
		t.Fatal("golden campaign found no best")
	}
	classes := journalClasses(t, snaps[len(snaps)-1])
	if classes[journal.ClassOK] == 0 || classes[journal.ClassPermanent] == 0 || golden.Stats.Invalid == 0 {
		t.Fatalf("golden run journaled %v with %+v; want ok and permanent records and Invalid > 0",
			classes, golden.Stats)
	}
	t.Logf("golden run: %d records %v, %+v", len(snaps), classes, golden.Stats)

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
				Wrap:    withBrokenTenth,
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
		Wrap:    withBrokenTenth,
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

// foldedCsTuner is csTuner as cstuner campaigns ran it before they ran the
// paper's island GA: one population of 32 instead of two islands of 16.
func foldedCsTuner() *cstuner.Tuner {
	t := cstuner.New()
	t.Cfg.GA.SubPopulations = 1
	t.Cfg.GA.PopSize = 32
	return t
}

// TestCampaignResumeFoldedJournal: a cstuner journal written while
// campaigns folded the GA into one population of 32 carries the same
// CampaignFingerprint, so an upgraded process resumes it into the 2×16
// search instead of quarantining it. That is safe because replay is per key
// and every journaled outcome is a pure function of (space, setting, arch):
// keys the new search asks for replay as a live measurement would answer,
// and the rest are never replayed. A folded campaign is cut after every
// record k, and each cut must resume to the uninterrupted 2×16 campaign's
// canonical result.
func TestCampaignResumeFoldedJournal(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	differs, cuts := 0, 0
	for _, st := range []*stencil.Stencil{stencil.Helmholtz(), stencil.Hypterm(), stencil.J3D7PT()} {
		for _, seed := range []int64{1, 5} {
			fx, err := NewFixture(st, gpu.A100(), 64, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := CampaignConfig{Method: "cstuner", BudgetS: 60, Seed: seed}
			golden, err := RunCampaign(context.Background(), fx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := golden.Canonical()

			// runFolded journals the folded campaign to path, cancelling it
			// once record cutAt is written (0 = never), and returns its
			// result and the number of records written.
			runFolded := func(path string, cutAt int) (*CampaignResult, int) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				records := 0
				folded := cfg
				folded.JournalPath = path
				folded.OnJournal = func(j *journal.Journal) {
					j.OnAppend = func(n int) {
						if records = n; n == cutAt {
							cancel()
						}
					}
				}
				r, err := PrepareCampaign(fx, folded)
				if err != nil {
					t.Fatal(err)
				}
				r.t = foldedCsTuner()
				res, err := r.Execute(ctx)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				return res, records
			}
			full, n := runFolded(filepath.Join(t.TempDir(), "full.wal"), 0)
			if full.Canonical() != want {
				differs++
			}
			for k := 1; k <= n; k += stride {
				path := filepath.Join(t.TempDir(), "cut.wal")
				runFolded(path, k)
				resumed := cfg
				resumed.JournalPath = path
				res, err := RunCampaign(context.Background(), fx, resumed)
				if err != nil {
					t.Fatalf("%s seed %d cut %d/%d: %v", st.Name, seed, k, n, err)
				}
				if got := res.Canonical(); got != want {
					t.Fatalf("%s seed %d cut %d/%d: resumed folded journal diverged\n got: %s\nwant: %s",
						st.Name, seed, k, n, got, want)
				}
				if res.Replayed == 0 {
					t.Fatalf("%s seed %d cut %d/%d: resume replayed nothing", st.Name, seed, k, n)
				}
				cuts++
			}
		}
	}
	if differs == 0 {
		t.Fatal("every folded campaign matched its 2×16 campaign; the test would prove nothing")
	}
	t.Logf("%d cuts resumed; %d of 6 folded campaigns differ from their 2×16 campaign", cuts, differs)
}

// TestCampaignFingerprintPinned pins the journal identity. Journals and
// persisted specs written by earlier versions carry this string, so any
// change to it sends every in-flight campaign to journal.wal.bad on upgrade.
func TestCampaignFingerprintPinned(t *testing.T) {
	got := CampaignFingerprint(resumeFixture(t), CampaignConfig{Method: "cstuner", BudgetS: 30, Seed: 5})
	// "repeats=0|quar=0" keeps journals written before those knobs were retired resumable.
	const want = "cstuner-campaign|v1|stencil=helmholtz|arch=A100|method=cstuner|seed=5|budget=30|repeats=0|quar=0|ds=64"
	if got != want {
		t.Fatalf("CampaignFingerprint = %q\nwant %q", got, want)
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
