package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baselines/cstuner"
	"repro/internal/frame"
	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
	"repro/internal/vfs"
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

// frameCuts returns every prefix of the finished journal at path that ends
// at a frame boundary, the header's end first: cut k holds k records. The
// journal is append-only, so each cut is one legal kill point — the file
// exactly as a SIGKILL right after that frame's write leaves it (written
// bytes outlive the process, synced or not).
func frameCuts(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cuts [][]byte
	for off := 0; off < len(data); {
		_, next, err := frame.Next(data, off)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, data[:next])
		off = next
	}
	return cuts
}

// runGolden runs one uninterrupted journaled campaign, returning its
// canonical result and its journal cut at every frame boundary.
func runGolden(t *testing.T, fx *Fixture, cfg CampaignConfig) (*CampaignResult, [][]byte) {
	t.Helper()
	cfg.JournalPath = filepath.Join(t.TempDir(), "golden.wal")
	res, err := RunCampaign(context.Background(), fx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := frameCuts(t, cfg.JournalPath)
	if len(cuts) < 2 {
		t.Fatal("golden campaign journaled nothing")
	}
	return res, cuts
}

// resumeFrom writes one kill-point cut to a fresh path and resumes the
// campaign from it.
func resumeFrom(t *testing.T, fx *Fixture, cfg CampaignConfig, dir string, cut []byte) (*CampaignResult, error) {
	t.Helper()
	cfg.JournalPath = filepath.Join(dir, "resume.wal")
	if err := os.WriteFile(cfg.JournalPath, cut, 0o644); err != nil {
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
	j, err := journal.OpenFS(vfs.OS, path, "")
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
// whose objective fails a tenth of its settings, killed at every frame
// boundary of its journal, must resume to a byte-identical canonical result
// — best setting, stats and trajectory.
func TestCampaignResumeKillMatrix(t *testing.T) {
	fx := resumeFixture(t)
	base := CampaignConfig{
		Method:  "cstuner",
		BudgetS: 30,
		Seed:    5,
		Wrap:    withBrokenTenth,
	}
	golden, cuts := runGolden(t, fx, base)
	want := golden.Canonical()
	if !golden.Found {
		t.Fatal("golden campaign found no best")
	}
	records := len(cuts) - 1
	classes := journalClasses(t, cuts[records])
	if classes[journal.ClassOK] == 0 || classes[journal.ClassPermanent] == 0 || golden.Stats.Invalid == 0 {
		t.Fatalf("golden run journaled %v with %+v; want ok and permanent records and Invalid > 0",
			classes, golden.Stats)
	}
	t.Logf("golden run: %d records %v, %+v", records, classes, golden.Stats)

	stride := 1
	if testing.Short() {
		stride = 5
	}
	for k := 0; k <= records; k += stride {
		res, err := resumeFrom(t, fx, base, t.TempDir(), cuts[k])
		if err != nil {
			t.Fatalf("kill=%d/%d: %v", k, records, err)
		}
		if got := res.Canonical(); got != want {
			t.Fatalf("kill=%d/%d: resumed result diverged\n got: %s\nwant: %s",
				k, records, got, want)
		}
		if res.Replayed != k {
			t.Fatalf("kill=%d: resume replayed %d records", k, res.Replayed)
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
			golden, cuts := runGolden(t, fx, base)
			want := golden.Canonical()
			res, err := resumeFrom(t, fx, base, t.TempDir(), cuts[len(cuts)/2])
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
	golden, cuts := runGolden(t, fx, base)
	want := golden.Canonical()
	full := cuts[len(cuts)-1]

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
// and the rest are never replayed. A folded campaign's journal is cut after
// every record k, and each cut must resume to the uninterrupted 2×16
// campaign's canonical result.
func TestCampaignResumeFoldedJournal(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	differs, resumed := 0, 0
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

			// The folded campaign, journaled once; its frame-boundary cuts
			// are what killing it after each record leaves.
			folded := cfg
			folded.JournalPath = filepath.Join(t.TempDir(), "folded.wal")
			r, err := PrepareCampaign(fx, folded)
			if err != nil {
				t.Fatal(err)
			}
			r.t = foldedCsTuner()
			full, err := r.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if full.Canonical() != want {
				differs++
			}
			cuts := frameCuts(t, folded.JournalPath)
			n := len(cuts) - 1
			for k := 1; k <= n; k += stride {
				res, err := resumeFrom(t, fx, cfg, t.TempDir(), cuts[k])
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
				resumed++
			}
		}
	}
	if differs == 0 {
		t.Fatal("every folded campaign matched its 2×16 campaign; the test would prove nothing")
	}
	t.Logf("%d cuts resumed; %d of 6 folded campaigns differ from their 2×16 campaign", resumed, differs)
}

// TestCampaignFingerprintPinned pins the journal identity. Journals and
// campaign specs written by earlier versions carry this string, so any
// change to it fails every in-flight campaign on upgrade.
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
	_, cuts := runGolden(t, fx, base)

	other := base
	other.Seed = 7
	_, err := resumeFrom(t, fx, other, t.TempDir(), cuts[len(cuts)-1])
	if !errors.Is(err, journal.ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
}
