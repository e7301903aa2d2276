package cstuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
)

func resumeConfig() Config {
	cfg := DefaultConfig()
	cfg.DatasetSize = 64
	cfg.Sampling.PoolSize = 512
	cfg.GA.MaxGenerations = 8
	cfg.EmitKernels = false
	return cfg
}

// TestResumeTuneCrashLoopConvergesToUninterruptedReport crash-restarts
// ResumeTune with aggressive deadlines until one attempt runs to
// completion, then checks the stitched-together run against a single
// uninterrupted one: same best setting, same kernel time, same engine
// accounting. Where each deadline lands is scheduling-dependent — the
// journal must make the outcome independent of it. Deadlines are scaled to
// the uninterrupted run's wall time, so the loop crashes at least once on
// fast and slow machines alike.
func TestResumeTuneCrashLoopConvergesToUninterruptedReport(t *testing.T) {
	s, err := NewSessionFor("helmholtz", "a100")
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeConfig()
	const budgetS = 25

	start := time.Now()
	golden, err := s.ResumeTune(context.Background(), filepath.Join(t.TempDir(), "golden.wal"), cfg, budgetS)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if golden.Best == nil || golden.BestMS <= 0 {
		t.Fatalf("uninterrupted run degenerate: %+v", golden)
	}

	path := filepath.Join(t.TempDir(), "crashy.wal")
	var rep *Report
	deadline := wall / 8
	step := wall/16 + time.Millisecond // guarantee forward progress eventually
	crashes := 0
	for attempt := 0; ; attempt++ {
		if attempt > 200 {
			t.Fatal("crash loop did not converge in 200 restarts")
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		rep, err = s.ResumeTune(ctx, path, cfg, budgetS)
		cancel()
		if err == nil && crashes == 0 {
			// Finished before any cut: nothing was resumed. Start over
			// from an empty journal with a tighter deadline.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			deadline /= 2
			continue
		}
		if err == nil {
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("restart %d: unexpected failure: %v", attempt, err)
		}
		crashes++
		deadline += step
	}
	t.Logf("converged after %d crashes", crashes)
	if rep.Best.Key() != golden.Best.Key() || rep.BestMS != golden.BestMS {
		t.Fatalf("resumed best %v/%.6f != uninterrupted %v/%.6f",
			rep.Best, rep.BestMS, golden.Best, golden.BestMS)
	}
	if !reflect.DeepEqual(rep.Engine, golden.Engine) {
		t.Fatalf("engine accounting diverged after %d crashes\n got: %+v\nwant: %+v",
			crashes, rep.Engine, golden.Engine)
	}
	if rep.Evaluations != golden.Evaluations {
		t.Fatalf("evaluations %d != %d", rep.Evaluations, golden.Evaluations)
	}
}

// TestResumeTuneFingerprintMismatch: a journal written under one budget must
// refuse to resume under another.
func TestResumeTuneFingerprintMismatch(t *testing.T) {
	s, err := NewSessionFor("j3d7pt", "a100")
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeConfig()
	path := filepath.Join(t.TempDir(), "run.wal")
	if _, err := s.ResumeTune(context.Background(), path, cfg, 10); err != nil {
		t.Fatal(err)
	}
	_, err = s.ResumeTune(context.Background(), path, cfg, 15)
	if !errors.Is(err, ErrJournalFingerprint) {
		t.Fatalf("err = %v, want ErrJournalFingerprint", err)
	}
}

// TestResumeTuneFingerprintPinned pins the journal identity ResumeTune
// writes for j3d7pt/a100, at the default config and with three knobs
// changed, so a journal written before a change to Config still resumes
// after it. The nmc, is, js and prefilter fields are literals.
func TestResumeTuneFingerprintPinned(t *testing.T) {
	s, err := NewSessionFor("j3d7pt", "a100")
	if err != nil {
		t.Fatal(err)
	}
	edited := DefaultConfig()
	edited.MaxGroupSize = 2
	edited.Sampling.Ratio = 0.25
	edited.GA.CVThreshold = 0
	for _, tc := range []struct {
		cfg     Config
		budgetS float64
		want    string
	}{
		{DefaultConfig(), 40, "cstuner-tune|v1|stencil=j3d7pt|arch=A100|seed=1|budget=40|ds=128|nmc=4|mgs=4|is=[0 1 2]|js=[0 1]|ratio=0.1|pool=4096|prefilter=false|ga=2,16,0.8,0.005,8,0.05,64|emit=true"},
		{edited, 12.5, "cstuner-tune|v1|stencil=j3d7pt|arch=A100|seed=1|budget=12.5|ds=128|nmc=4|mgs=2|is=[0 1 2]|js=[0 1]|ratio=0.25|pool=4096|prefilter=false|ga=2,16,0.8,0.005,8,0,64|emit=true"},
	} {
		if got := s.tuneFingerprint(tc.cfg, tc.budgetS); got != tc.want {
			t.Errorf("budget %g: fingerprint\n%s\nwant\n%s", tc.budgetS, got, tc.want)
		}
	}
}

// TestResumeTuneCorruptHeaderRefused: a file that is not a journal fails
// cleanly with ErrJournalCorrupt.
func TestResumeTuneCorruptHeaderRefused(t *testing.T) {
	s, err := NewSessionFor("j3d7pt", "a100")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "garbage.wal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.ResumeTune(context.Background(), path, resumeConfig(), 10)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v, want ErrJournalCorrupt", err)
	}
}

// TestResumeTuneMatchesTuneWithBudget: on a fresh journal, ResumeTune is
// TuneWithBudget with a journal attached, so both run the same 2×16 island
// GA and must agree on the best setting, the bits of its time, the
// evaluation count and every engine counter.
func TestResumeTuneMatchesTuneWithBudget(t *testing.T) {
	const budgetS = 200
	for _, st := range Suite() {
		for _, arch := range []string{"a100", "v100"} {
			s, err := NewSessionFor(st.Name, arch)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2} {
				cfg := DefaultConfig()
				cfg.DatasetSize = 64
				cfg.Seed = seed
				want, err := s.TuneWithBudget(cfg, budgetS)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.ResumeTune(context.Background(), filepath.Join(t.TempDir(), "run.wal"), cfg, budgetS)
				if err != nil {
					t.Fatal(err)
				}
				if got.Best.Key() != want.Best.Key() || math.Float64bits(got.BestMS) != math.Float64bits(want.BestMS) ||
					got.Evaluations != want.Evaluations || got.Engine != want.Engine {
					t.Errorf("%s/%s seed %d: ResumeTune %v %v ms, %d evals, %+v\nTuneWithBudget %v %v ms, %d evals, %+v",
						st.Name, arch, seed, got.Best, got.BestMS, got.Evaluations, got.Engine,
						want.Best, want.BestMS, want.Evaluations, want.Engine)
				}
			}
		}
	}
}

// TestResumeTuneMatchesCampaign checks the daemon's cstuner campaign against
// the library: a journaled harness.RunCampaign and ResumeTune on the same
// stencil, GPU, seed, budget and 64-sample dataset run one search, so their
// engine stats are equal. Their bests are equal too, except where the
// report falls back to the dataset's best sample, which the engine never
// measured; a campaign counts only settings it measured, so its best is
// then no better than that sample.
func TestResumeTuneMatchesCampaign(t *testing.T) {
	var fallbacks []string
	for _, name := range []string{"j3d7pt", "helmholtz", "hypterm", "rhs4center"} {
		for _, arch := range []string{"a100", "v100"} {
			s, err := NewSessionFor(name, arch)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2, 3} {
				fx, err := harness.NewFixture(s.Stencil(), s.sim.Arch, 64, seed)
				if err != nil {
					t.Fatal(err)
				}
				dsBest := fx.DS.Best()
				for _, budgetS := range []float64{100, 400} {
					res, err := harness.RunCampaign(context.Background(), fx, harness.CampaignConfig{
						Method: MethodCsTuner, BudgetS: budgetS, Seed: seed,
						JournalPath: filepath.Join(t.TempDir(), "campaign.wal"),
					})
					if err != nil {
						t.Fatal(err)
					}
					cfg := DefaultConfig()
					cfg.DatasetSize = 64
					cfg.Seed = seed
					rep, err := s.ResumeTune(context.Background(), filepath.Join(t.TempDir(), "tune.wal"), cfg, budgetS)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s/%s seed %d budget %g", name, arch, seed, budgetS)
					if res.Stats != rep.Engine {
						t.Errorf("%s: campaign stats %+v\nResumeTune engine %+v", at, res.Stats, rep.Engine)
					}
					switch {
					case res.Best.Key() == rep.Best.Key() && res.BestMS == rep.BestMS:
					case rep.Best.Key() == dsBest.Setting.Key() && rep.BestMS == dsBest.TimeMS && res.BestMS >= dsBest.TimeMS:
						fallbacks = append(fallbacks, at)
					default:
						t.Errorf("%s: campaign best %v %v ms, ResumeTune best %v %v ms, dataset best %v ms",
							at, res.Best, res.BestMS, rep.Best, rep.BestMS, dsBest.TimeMS)
					}
				}
			}
		}
	}
	t.Logf("%d of 48 reports fell back to the dataset's best sample: %v", len(fallbacks), fallbacks)
}
