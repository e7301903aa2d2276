package cstuner

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/gpu"
	"repro/internal/grouping"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/temporal"
	"repro/internal/vfs"
)

// Stencil describes one stencil computation; see internal/stencil for the
// full type. The suite constructors below return the paper's Table III set.
type Stencil = stencil.Stencil

// Setting is one concrete assignment of the 19 optimization parameters.
type Setting = space.Setting

// Arch is a modelled GPU architecture (A100 or V100).
type Arch = gpu.Arch

// Config is the csTuner pipeline configuration; DefaultConfig mirrors the
// paper's evaluation setup.
type Config = core.Config

// Report is the outcome of one csTuner run: the winning setting, its kernel
// time, and pipeline diagnostics (groups, models, overhead breakdown).
type Report = core.Report

// Tap is one stencil access: read input array Array at an offset from the
// centre point, scaled by Coeff.
type Tap = stencil.Tap

// StarTaps returns an axis-aligned star access pattern of the given order on
// input array a — the building block for user-defined stencils.
func StarTaps(order, a int) []Tap { return stencil.StarTaps(order, a) }

// BoxTaps returns the dense (2·order+1)³ box pattern on input array a.
func BoxTaps(order, a int) []Tap { return stencil.BoxTaps(order, a) }

// CenterTap returns a single centre-point read of input array a with
// coefficient c.
func CenterTap(a int, c float64) []Tap { return stencil.CenterTap(a, c) }

// Suite returns the eight Table III benchmark stencils.
func Suite() []*Stencil { return stencil.Suite() }

// StencilByName returns a Table III stencil by name, or nil.
func StencilByName(name string) *Stencil { return stencil.ByName(name) }

// A100 and V100 return the two modelled GPU architectures.
func A100() *Arch { return gpu.A100() }

// V100 returns the Volta model used in the paper's portability study.
func V100() *Arch { return gpu.V100() }

// DefaultConfig returns the paper's csTuner configuration (128-sample
// dataset, 10% sampling ratio, 2×16 GA, crossover 0.8, mutation 0.005).
func DefaultConfig() Config { return core.DefaultConfig() }

// Session is a tuning session for one stencil on one simulated GPU. It
// exposes measurement, csTuner, the comparators, and kernel inspection.
type Session struct {
	stencil *Stencil
	space   *space.Space
	sim     *sim.Simulator
}

// NewSession validates the stencil and builds its parameter space and
// simulator.
func NewSession(st *Stencil, arch *Arch) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("cstuner: nil stencil")
	}
	if arch == nil {
		return nil, fmt.Errorf("cstuner: nil architecture")
	}
	sp, err := space.New(st)
	if err != nil {
		return nil, err
	}
	return &Session{stencil: st, space: sp, sim: sim.New(sp, arch)}, nil
}

// NewSessionFor is the one-line constructor: stencil and arch by name.
func NewSessionFor(stencilName, archName string) (*Session, error) {
	st := stencil.ByName(stencilName)
	if st == nil {
		return nil, fmt.Errorf("cstuner: unknown stencil %q", stencilName)
	}
	arch, err := gpu.ByName(archName)
	if err != nil {
		return nil, err
	}
	return NewSession(st, arch)
}

// Stencil returns the session's stencil.
func (s *Session) Stencil() *Stencil { return s.stencil }

// DefaultSetting returns the canonical untuned setting.
func (s *Session) DefaultSetting() Setting { return s.space.Default() }

// Validate checks a setting against the explicit Table I constraints.
func (s *Session) Validate(set Setting) error { return s.space.Validate(set) }

// Measure runs one setting on the simulated GPU and returns milliseconds.
func (s *Session) Measure(set Setting) (float64, error) { return s.sim.Measure(set) }

// Metrics runs one setting and returns its Nsight-style metric report.
func (s *Session) Metrics(set Setting) (float64, map[string]float64, error) {
	res, err := s.sim.Run(set)
	if err != nil {
		return 0, nil, err
	}
	return res.TimeMS, res.Metrics, nil
}

// EmitCUDA generates the CUDA source a GPU toolchain would compile for the
// setting.
func (s *Session) EmitCUDA(set Setting) (string, error) {
	k, err := kernel.Build(s.space, set, s.sim.Arch)
	if err != nil {
		return "", err
	}
	return k.EmitCUDA(), nil
}

// Tune runs the full csTuner pipeline with the given configuration and no
// time budget.
func (s *Session) Tune(cfg Config) (*Report, error) {
	return core.Tune(s.sim, nil, cfg, nil)
}

// TuneCtx is Tune under a caller context: cancelling ctx (or letting its
// deadline pass) stops the tuning session promptly. A cancelled run returns
// its partial Report — the best setting measured before the cut plus the
// engine's counters — alongside ctx's error.
func (s *Session) TuneCtx(ctx context.Context, cfg Config) (*Report, error) {
	return core.TuneCtx(ctx, s.sim, nil, cfg, nil)
}

// TuneWithBudget runs csTuner under a virtual auto-tuning budget (seconds of
// compile+run time, as metered by the engine cost model). The offline
// stencil dataset is collected unmetered on the simulator, matching the
// paper's accounting (metric collection is a one-time offline step,
// Sec. V-F) and keeping collection out of the budgeted run.
func (s *Session) TuneWithBudget(cfg Config, budgetS float64) (*Report, error) {
	return s.TuneWithBudgetCtx(context.Background(), cfg, budgetS)
}

// TuneWithBudgetCtx is TuneWithBudget under a caller context; the virtual
// budget and the context deadline race, and whichever trips first ends the
// run.
func (s *Session) TuneWithBudgetCtx(ctx context.Context, cfg Config, budgetS float64) (*Report, error) {
	return s.tuneBudgeted(ctx, "", cfg, budgetS)
}

// ErrJournalCorrupt and ErrJournalFingerprint re-export the journal's
// resume failures: a journal whose header cannot be trusted, and a journal
// written by a differently-configured campaign. Both are clean errors —
// torn tails from a crash mid-append are not errors at all; they are
// truncated and the intact prefix resumed.
var (
	ErrJournalCorrupt     = journal.ErrCorrupt
	ErrJournalFingerprint = journal.ErrFingerprint
)

// ResumeTune is the crash-safe TuneWithBudgetCtx: every measurement episode
// is write-ahead logged to the journal at path before it is accounted, and
// the journal is synced before ResumeTune returns, so a run killed at any
// instant — preemption, OOM, Ctrl-C — can be re-run with the same
// arguments and continue where it stopped. When path does not
// exist a fresh campaign starts; when it holds a previous run's journal the
// pipeline re-executes deterministically while the engine replays every
// journaled episode instead of re-measuring it, producing a final Report
// identical to the uninterrupted run's and only then measuring new
// settings. Constraint rejections are not journaled: they are a pure
// function of the setting and the GPU, so the re-executed pipeline
// re-checks them at the same points. A journal from a
// differently-configured campaign is refused with ErrJournalFingerprint.
// An empty path journals nothing, which is TuneWithBudgetCtx.
func (s *Session) ResumeTune(ctx context.Context, path string, cfg Config, budgetS float64) (*Report, error) {
	return s.tuneBudgeted(ctx, path, cfg, budgetS)
}

// tuneBudgeted collects the offline dataset unmetered and runs csTuner
// through an engine under the virtual budget, journaled to path unless it
// is empty.
func (s *Session) tuneBudgeted(ctx context.Context, path string, cfg Config, budgetS float64) (*Report, error) {
	ds, err := dataset.Collect(s.sim, stats.NewRand(cfg.Seed), cfg.DatasetSize)
	if err != nil {
		return nil, err
	}
	opts := []engine.Option{engine.WithBudget(budgetS)}
	if path != "" {
		jr, err := journal.OpenOrCreateFS(vfs.OS, path, s.tuneFingerprint(cfg, budgetS))
		if err != nil {
			return nil, err
		}
		//cstlint:allow errdrop(teardown close after SyncJournal synced every frame; no caller can act on the error)
		defer jr.Close()
		opts = append(opts, engine.WithJournal(jr))
	}
	eng := engine.New(s.sim, opts...)
	rep, err := core.TuneCtx(ctx, eng, ds, cfg, eng.Exhausted)
	// The report must not outrun the records behind it: sync on every path.
	if serr := eng.SyncJournal(); serr != nil {
		return rep, serr
	}
	return rep, err
}

// tuneFingerprint identifies a resumable tuning campaign: every explicit
// scalar knob that changes the measurement sequence, built field by field.
// The nmc, is, js and prefilter fields are literals: the pipeline fixes
// those values, and they stay so that journals written while they were
// settable still resume.
func (s *Session) tuneFingerprint(cfg Config, budgetS float64) string {
	return fmt.Sprintf(
		"cstuner-tune|v1|stencil=%s|arch=%s|seed=%d|budget=%g|ds=%d|nmc=4|mgs=%d|is=[0 1 2]|js=[0 1]|ratio=%g|pool=%d|prefilter=false|ga=%d,%d,%g,%g,%d,%g,%d|emit=%v",
		s.stencil.Name, s.sim.Arch.Name, cfg.Seed, budgetS, cfg.DatasetSize,
		cfg.MaxGroupSize, cfg.Sampling.Ratio, cfg.Sampling.PoolSize,
		cfg.GA.SubPopulations, cfg.GA.PopSize, cfg.GA.CrossoverRate, cfg.GA.MutationRate,
		cfg.GA.TopN, cfg.GA.CVThreshold, cfg.GA.MaxGenerations, cfg.EmitKernels)
}

// Comparator names accepted by RunComparator.
const (
	MethodCsTuner   = "cstuner"
	MethodOpenTuner = "opentuner"
	MethodGarvey    = "garvey"
	MethodArtemis   = "artemis"
)

// RunComparator races one auto-tuning method against a virtual budget and
// returns its best setting and kernel time. Garvey and csTuner collect their
// offline dataset internally (seeded deterministically).
func (s *Session) RunComparator(method string, budgetS float64, seed int64) (Setting, float64, error) {
	return s.RunComparatorCtx(context.Background(), method, budgetS, seed)
}

// RunComparatorCtx is RunComparator under a caller context: cancellation
// stops the comparator promptly, and the best setting it measured before
// the cut is returned; a run that measured nothing fails. It is one
// unjournaled harness.RunCampaign on a 128-sample fixture; an unknown
// method is refused before the fixture is collected.
func (s *Session) RunComparatorCtx(ctx context.Context, method string, budgetS float64, seed int64) (Setting, float64, error) {
	if _, err := harness.CampaignTuner(method); err != nil {
		return nil, 0, err
	}
	fx, err := harness.NewFixture(s.stencil, s.sim.Arch, 128, seed)
	if err != nil {
		return nil, 0, err
	}
	res, err := harness.RunCampaign(ctx, fx, harness.CampaignConfig{Method: method, BudgetS: budgetS, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	return res.Best, res.BestMS, nil
}

// GEMM is a tiled matrix-multiplication workload over a custom optimization
// space — the paper's future-work extension to tensor programs (Sec. VII).
// csTuner tunes it through the same Objective surface as stencils.
type GEMM = gemm.Workload

// NewGEMM builds a GEMM workload C[M×N] += A[M×K]·B[K×N] on the given
// simulated architecture.
func NewGEMM(m, n, k int, arch *Arch) (*GEMM, error) { return gemm.New(m, n, k, arch) }

// TuneGEMM runs the unmodified csTuner pipeline on a GEMM workload: the
// pipeline collects the offline dataset from the workload's own model (any
// objective that can produce metric reports self-collects), then grouping,
// metric combination, PMNF sampling and the per-group genetic search run
// exactly as they do for stencils.
func TuneGEMM(w *GEMM, cfg Config) (*Report, error) {
	cfg.EmitKernels = false // no CUDA emitter for the GEMM family
	return core.Tune(w, nil, cfg, nil)
}

// CPUWorkload is an OpenMP-style stencil kernel on a multicore CPU — the
// paper's future-work hardware extension (Sec. VII). The default CPU model
// is the paper's own host, a Xeon E5-2680 v4 (Table II).
type CPUWorkload = cpu.Workload

// XeonE52680v4 returns the modelled host CPU from the paper's Table II.
func XeonE52680v4() *cpu.Arch { return cpu.XeonE52680v4() }

// NewCPUStencil builds a CPU tuning workload for the stencil.
func NewCPUStencil(st *Stencil, arch *cpu.Arch) (*CPUWorkload, error) { return cpu.New(st, arch) }

// TuneCPU runs the unmodified csTuner pipeline on a CPU stencil workload,
// self-collecting the offline dataset from the workload's model.
func TuneCPU(w *CPUWorkload, cfg Config) (*Report, error) {
	cfg.EmitKernels = false // the CPU family has no CUDA emitter
	return core.Tune(w, nil, cfg, nil)
}

// TemporalWorkload is a time-iterated stencil with AN5D-style temporal
// blocking in its optimization space — the paper's "more optimization
// techniques" future-work claim (Sec. VII).
type TemporalWorkload = temporal.Workload

// NewTemporal builds a temporal-blocking workload: the stencil is advanced
// totalSteps time steps, and the tuner chooses how many of them each kernel
// launch fuses.
func NewTemporal(st *Stencil, arch *Arch, totalSteps int) (*TemporalWorkload, error) {
	return temporal.New(st, arch, totalSteps)
}

// TuneTemporal runs the unmodified csTuner pipeline on a temporal-blocking
// workload, self-collecting the offline dataset from the workload's model.
func TuneTemporal(w *TemporalWorkload, cfg Config) (*Report, error) {
	cfg.EmitKernels = false
	return core.Tune(w, nil, cfg, nil)
}

// CampaignSpec describes one tuning campaign submitted to the multi-tenant
// campaign service: tenant, method, workload, budget and seed. Every field
// is deterministic, which is what lets a crashed campaign re-run to a
// byte-identical result.
type CampaignSpec = campaign.Spec

// CampaignState is a campaign's lifecycle position (pending, running,
// paused, completed, failed, canceled).
type CampaignState = campaign.State

// CampaignStatus is a campaign's externally-visible snapshot: lifecycle
// position, live progress, and the canonical result once completed.
type CampaignStatus = campaign.Status

// CampaignRegistry owns a directory of journaled campaigns: submission,
// per-tenant budget ledgers, weighted-fair measurement scheduling, and
// deterministic resume of every campaign interrupted by a crash.
type CampaignRegistry = campaign.Registry

// RegistryOptions configures OpenCampaignRegistry (measurement slots,
// default tenant budget, the shared result store, the filesystem seam).
type RegistryOptions = campaign.Options

// OpenCampaignRegistry opens (or reopens) a campaign registry rooted at
// dir: each campaign is one journal file, which the scan reads once (a
// campaign whose file cannot be read loads Failed, alone), directories
// written in the earlier layout of JSON files are upgraded in place, and
// interrupted campaigns resume through the journal replay path.
func OpenCampaignRegistry(dir string, opts RegistryOptions) (*CampaignRegistry, error) {
	return campaign.Open(dir, opts)
}

// NewCampaignHandler returns the HTTP API over a registry — the same
// handler cstunerd serves. See DESIGN.md §10 for the endpoint contract.
func NewCampaignHandler(reg *CampaignRegistry) http.Handler { return service.New(reg) }

// ResultStore is the persistent cross-campaign measurement store: an
// append-only, crash-safe database of (architecture, stencil shape, setting)
// → best measured milliseconds, shared by every campaign under one registry
// root. Campaigns consult it before measuring (a hit costs zero budget) and
// publish every completed measurement back; see DESIGN.md §13.
type ResultStore = store.Store

// ResultStoreStats is a store's counter snapshot (keys, segments, loaded and
// appended records, quarantined files).
type ResultStoreStats = store.Stats

// ResultStoreEntry is one decomposed store record, as returned by
// ResultStore.Best.
type ResultStoreEntry = store.Entry

// OpenResultStore opens (creating if needed) a shared result store rooted at
// dir. Multiple processes may hold the same directory open concurrently;
// each appends to its own segment file. The registry manages its own store
// when RegistryOptions.EnableStore is set — open one directly only for
// engine-level wiring via engine.WithStore or offline inspection.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// FormatGroups renders a grouping (from Report.Groups) with parameter names.
func FormatGroups(groups [][]int) string { return grouping.Format(groups) }

// WriteTableIII writes the benchmark-suite table to w.
func WriteTableIII(w io.Writer) { harness.Table3(w) }
