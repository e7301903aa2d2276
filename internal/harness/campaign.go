package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/baselines/cstuner"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vfs"
)

// CampaignConfig describes one resumable tuning campaign: a method racing a
// virtual budget on a fixture, optionally journaled to disk so a killed run
// can be resumed.
type CampaignConfig struct {
	// Method is one of "cstuner", "opentuner", "garvey", "artemis".
	Method string
	// BudgetS is the virtual auto-tuning budget in seconds (0 = unlimited —
	// only sensible for methods that terminate on their own).
	BudgetS float64
	// Seed drives the tuner and (via the fingerprint) journal identity.
	Seed int64
	// JournalPath, when non-empty, makes the campaign crash-safe: episodes
	// are write-ahead logged there, and a journal already on disk is
	// resumed. Constraint rejections get no record; the resumed run
	// re-checks them (engine.WithJournal).
	JournalPath string
	// FS is the filesystem seam the journal performs every disk operation
	// through (nil = the real filesystem, vfs.OS). It sits alongside the
	// engine's Clock as an injectable environment edge: chaos tests plug a
	// vfs.FaultFS in to sweep disk faults across the campaign. FS never
	// enters the fingerprint — where the bytes land is environment, not
	// campaign identity.
	FS vfs.FS
	// Wrap, when set, wraps the campaign's simulator in one more layer
	// before the engine is built on top. The campaign service uses it to
	// insert its weighted-fair measurement gate. Wrap never enters the
	// campaign fingerprint: admission control changes when measurements run,
	// never what they return.
	Wrap func(sim.Objective) sim.Objective
	// Store, when non-nil, attaches the shared cross-campaign result store:
	// memo-cache misses consult it before measuring (free hits, zero budget)
	// and successful episodes publish back. Store presence never enters the
	// fingerprint — store hits are journaled as their own episode class, so
	// journals written with and without a store interoperate.
	Store *store.Store
	// WarmStart lists prior best settings seeding the search (cstuner only;
	// other methods ignore it). It enters the fingerprint via a digest of
	// the setting keys: warm seeds change which settings the search visits,
	// so a journal written warm must not replay into a cold run.
	WarmStart []space.Setting
}

// CampaignResult is the canonical outcome of one campaign: everything the
// resume acceptance criteria compare byte-for-byte. Wall-clock quantities
// (timing spans) are deliberately absent — they can never be identical
// across runs.
type CampaignResult struct {
	Best       space.Setting
	BestMS     float64
	Found      bool
	Stats      engine.Stats
	Trajectory []engine.Point
	// Replayed counts episodes served from the journal instead of the
	// objective; informational, excluded from Canonical so an interrupted
	// and an uninterrupted run compare equal.
	Replayed int
}

// Canonical renders the run-semantic outcome as one deterministic string: a
// resumed campaign is correct exactly when its Canonical equals the
// uninterrupted run's.
func (r *CampaignResult) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "best=%v bestms=%.12g found=%v\n", r.Best, r.BestMS, r.Found)
	// Degradation counters are disk weather, not run semantics: a campaign
	// that rode out fsync trouble still computed the same result, and the
	// fault-point walker's byte-identical-resume invariant depends on that.
	// Zero them in a copy before rendering.
	st := r.Stats
	st.DirSyncErrs, st.StorePutDrops = 0, 0
	fmt.Fprintf(&b, "stats=%+v\n", st)
	for i, p := range r.Trajectory {
		fmt.Fprintf(&b, "traj[%d]=%.12g,%d,%.12g\n", i, p.CostS, p.Evals, p.BestMS)
	}
	return b.String()
}

// CampaignFingerprint identifies a campaign for journal compatibility. It
// is built from explicit scalar fields only — never from reflective struct
// dumps, which would drag pointers (e.g. function-valued config fields)
// into the identity.
func CampaignFingerprint(fx *Fixture, cfg CampaignConfig) string {
	// "repeats=0|quar=0" keeps journals written before those knobs were retired resumable.
	fp := fmt.Sprintf("cstuner-campaign|v1|stencil=%s|arch=%s|method=%s|seed=%d|budget=%g|repeats=0|quar=0|ds=%d",
		fx.Stencil.Name, fx.Sim.Arch.Name, cfg.Method, cfg.Seed, cfg.BudgetS, len(fx.DS.Samples))
	if len(cfg.WarmStart) > 0 {
		// Warm seeds steer which settings the search measures, so they are
		// campaign identity; digesting the keys keeps the fingerprint short.
		var keys strings.Builder
		for _, w := range cfg.WarmStart {
			keys.WriteString(w.Key() + "\n")
		}
		fp += fmt.Sprintf("|warm=%d,%016x", len(cfg.WarmStart), stats.KeyHash(keys.String()))
	}
	return fp
}

// CampaignTuner returns a fresh tuner for a campaign method: the
// Methods() entry of that name, as published (csTuner runs
// core.DefaultConfig()'s 2×16 island GA).
func CampaignTuner(method string) (baselines.Tuner, error) {
	for _, t := range Methods() {
		if t.Name() == method {
			return t, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown campaign method %q", method)
}

// CampaignRun is one prepared campaign execution: the tuner, the engine
// (journal attached when the campaign is crash-safe) and the open journal
// handle. Prepare/Execute/Close splits the previously monolithic
// RunCampaign flow so a lifecycle owner (internal/campaign) can interpose
// state transitions around each stage: Prepare while the campaign is still
// Pending, Execute while it is Running, Close on any exit path.
type CampaignRun struct {
	fx  *Fixture
	cfg CampaignConfig
	t   baselines.Tuner
	eng *engine.Engine
	jr  *journal.Journal
}

// PrepareCampaign builds the tuner, opens (or resumes) the journal and
// constructs the engine — everything RunCampaign does before the first
// measurement. Errors here are pre-flight failures: an unknown method, a
// corrupt journal (journal.ErrCorrupt) or a journal written by a
// differently-configured campaign (journal.ErrFingerprint).
func PrepareCampaign(fx *Fixture, cfg CampaignConfig) (*CampaignRun, error) {
	t, err := CampaignTuner(cfg.Method)
	if err != nil {
		return nil, err
	}
	opts := []engine.Option{engine.WithBudget(cfg.BudgetS)}
	if cfg.Store != nil {
		opts = append(opts, engine.WithStore(cfg.Store,
			store.Prefix(store.ArchFingerprint(fx.Sim.Arch), store.ShapeFingerprint(fx.Stencil))))
	}
	if len(cfg.WarmStart) > 0 {
		if ct, ok := t.(*cstuner.Tuner); ok {
			ct.Cfg.WarmStart = cfg.WarmStart
		}
	}
	var jr *journal.Journal
	if cfg.JournalPath != "" {
		jr, err = journal.OpenOrCreateFS(vfs.Or(cfg.FS), cfg.JournalPath, CampaignFingerprint(fx, cfg))
		if err != nil {
			return nil, err
		}
		opts = append(opts, engine.WithJournal(jr))
	}
	var obj sim.Objective = fx.Sim
	if cfg.Wrap != nil {
		obj = cfg.Wrap(obj)
	}
	return &CampaignRun{fx: fx, cfg: cfg, t: t, eng: engine.New(obj, opts...), jr: jr}, nil
}

// Engine exposes the run's engine for progress polling (SpentS, Evals,
// Best) while Execute is in flight.
func (r *CampaignRun) Engine() *engine.Engine { return r.eng }

// Journal returns the open journal, or nil for an unjournaled campaign.
func (r *CampaignRun) Journal() *journal.Journal { return r.jr }

// Execute runs the tuner to completion (or cancellation) and returns the
// canonical result, read from the run's engine. A cancelled ctx surfaces as
// ctx.Err() alongside the partial result — the caller decides whether that
// is a pause, a cancel or a shutdown. A budget-stop with at least one
// measurement is the normal end of a campaign. A campaign that measured
// nothing fails with no result: its error wraps the tuner's error, else
// ctx.Err(), else ErrMeasuredNothing. On every path the journal is synced
// before Execute returns, so neither the result nor the state the caller
// records next can outrun the records behind it.
func (r *CampaignRun) Execute(ctx context.Context) (*CampaignResult, error) {
	eng := r.eng
	tuneErr := r.t.Tune(ctx, eng, r.fx.DS, r.cfg.Seed, eng.Exhausted)
	if err := eng.SyncJournal(); err != nil {
		return nil, err
	}
	set, ms, ok := eng.Best()
	if !ok {
		return nil, fmt.Errorf("harness: campaign %s: %w", r.cfg.Method, measuredNothing(ctx, tuneErr))
	}
	res := &CampaignResult{
		Best:       set,
		BestMS:     ms,
		Found:      true,
		Stats:      eng.Stats(),
		Trajectory: eng.Trajectory(),
		Replayed:   eng.Replayed(),
	}
	return res, ctx.Err()
}

// Close releases the journal handle, syncing any unsynced tail. After
// Execute has returned there is none: Execute syncs on every path.
func (r *CampaignRun) Close() error {
	if r.jr == nil {
		return nil
	}
	return r.jr.Close()
}

// RunCampaign runs (or, when cfg.JournalPath holds a previous run's
// journal, resumes) one campaign to completion and returns its canonical
// result. Resume is deterministic re-execution: the tuner re-runs from the
// start, and the engine serves every episode the journal already paid for
// instead of measuring it, so the final result is byte-identical to the
// uninterrupted run's. It is Prepare + Execute + Close with the historical
// contract: a run cancelled after measuring something still returns its
// partial result with a nil error.
func RunCampaign(ctx context.Context, fx *Fixture, cfg CampaignConfig) (*CampaignResult, error) {
	r, err := PrepareCampaign(fx, cfg)
	if err != nil {
		return nil, err
	}
	//cstlint:allow errdrop(teardown close after Execute synced every frame; no caller can act on the error)
	defer r.Close()
	res, err := r.Execute(ctx)
	if res != nil && err != nil && errors.Is(err, ctx.Err()) {
		// Historical RunCampaign semantics: cancellation with a partial
		// result is not an error — the caller asked for the cut.
		return res, nil
	}
	return res, err
}
