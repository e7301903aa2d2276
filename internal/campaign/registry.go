package campaign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/store"
	"repro/internal/vfs"
)

// Registry errors surfaced to the serving layer.
var (
	// ErrUnknownCampaign is returned for an id the registry does not hold.
	ErrUnknownCampaign = errors.New("campaign: unknown campaign")
	// ErrClosed is returned by operations on a closed registry.
	ErrClosed = errors.New("campaign: registry closed")
)

// The registry lock always nests outside any individual campaign's lock:
// registry methods look a campaign up under Registry.mu and then take
// Campaign.mu; campaign methods never reach back into the registry.
//
//cstlint:lockorder registry.mu < campaign.mu

// Options configures a registry.
type Options struct {
	// Slots bounds concurrent live measurements across all campaigns
	// (the weighted-fair scheduler's capacity). 0 or less means 8.
	Slots int
	// TenantBudgetS is every tenant's virtual budget (0 = tenants are
	// unmetered).
	TenantBudgetS float64
	// Autostart, default true via Open, runs pending campaigns immediately.
	// Tests set DisableAutostart to drive campaigns by hand.
	DisableAutostart bool
	// EnableStore opens the shared cross-campaign result store under
	// <root>/store: every campaign consults it before measuring, publishes
	// successes back, and may warm-start from it (Spec.WarmStart). The
	// directory layout is multi-process safe — several registries may share
	// one root.
	EnableStore bool
	// FS is the filesystem seam for every durable operation: campaign
	// journals, the upgrade of an earlier layout and the shared store (nil =
	// the real filesystem, vfs.OS). Chaos tests inject a vfs.FaultFS here.
	FS vfs.FS
}

// Registry owns every campaign under one root directory: one subdirectory
// per campaign holding one file, journal.wal, whose owner records carry the
// spec, each persisted lifecycle state and the result beside the measured
// episodes. Open scans the root, reading each file once, reconstructs
// tenant ledgers, and resumes every campaign that was pending or running
// when the previous process died — through the deterministic journal replay
// path, so the registry as a whole survives kill -9 with no lost work
// beyond unaccounted episodes.
type Registry struct {
	root    string
	fs      vfs.FS
	clock   engine.Clock
	sched   *Scheduler
	ledgers *Ledgers
	opts    Options
	store   *store.Store // shared result store; nil when disabled

	// dirSyncErrs counts directory-fsync failures of campaign creates and
	// of the upgrade — durable data whose directory entry may not survive a
	// power loss. Surfaced by Health.
	dirSyncErrs atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // submission order (directory scan order on restart)
	seq       int
	closed    bool
}

// Open creates (or reopens) the registry rooted at dir, scans existing
// campaign directories, upgrading any written in the earlier layout of
// JSON files, reconstructs ledgers, and — unless autostart is disabled —
// resumes interrupted campaigns.
func Open(dir string, opts Options) (*Registry, error) {
	fsys := vfs.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open registry: %w", err)
	}
	slots := opts.Slots
	if slots <= 0 {
		slots = 8
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		root:       dir,
		fs:         fsys,
		clock:      time.Now, // value use: the sanctioned wall-clock seam (engine.Clock)
		sched:      NewScheduler(slots),
		ledgers:    NewLedgers(opts.TenantBudgetS),
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		campaigns:  map[string]*Campaign{},
	}
	// The store loads on a second goroutine while this one scans the
	// campaigns. The goroutine touches only the store it builds, and the
	// scan never reads r.store (DESIGN.md §10).
	var (
		st    *store.Store
		stErr error
		load  sync.WaitGroup
	)
	if opts.EnableStore {
		load.Add(1)
		go func() {
			defer load.Done()
			st, stErr = store.OpenFS(fsys, filepath.Join(dir, "store"))
		}()
	}
	err := r.scan()
	load.Wait()
	if stErr != nil || err != nil {
		cancel()
		if stErr != nil {
			return nil, stErr
		}
		if st != nil {
			_ = st.Close() // the scan's error is the one to report
		}
		return nil, err
	}
	r.store = st
	if !opts.DisableAutostart {
		r.StartPending()
	}
	return r, nil
}

// Ledgers exposes the tenant budget ledgers (the service layer reads
// snapshots through it).
func (r *Registry) Ledgers() *Ledgers { return r.ledgers }

// Scheduler exposes the fairness scheduler (diagnostics).
func (r *Registry) Scheduler() *Scheduler { return r.sched }

// StoreStats snapshots the shared store's counters; enabled=false when the
// registry was opened without a store.
func (r *Registry) StoreStats() (store.Stats, bool) {
	if r.store == nil {
		return store.Stats{}, false
	}
	return r.store.Stats(), true
}

// scan loads every campaign directory under the root in the order their
// ids were issued. A campaign whose file cannot be read loads as Failed
// with the reason, and the scan goes on: one bad campaign never aborts
// registry startup. A directory whose file holds no spec is no campaign —
// no Submit that returned success leaves one — but its id stays used.
func (r *Registry) scan() error {
	entries, err := r.fs.ReadDir(r.root)
	if err != nil {
		return fmt.Errorf("campaign: scan: %w", err)
	}
	slices.SortFunc(entries, func(a, b os.DirEntry) int {
		return cmp.Or(cmp.Compare(idSeq(a.Name()), idSeq(b.Name())), strings.Compare(a.Name(), b.Name()))
	})
	var buf []byte // every journal is read into this one buffer
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		r.seq = max(r.seq, idSeq(e.Name()))
		var c *Campaign
		if c, buf = r.load(e.Name(), buf); c != nil {
			r.campaigns[c.ID] = c
			r.order = append(r.order, c.ID)
		}
	}
	return nil
}

// idSeq parses the sequence number of a campaign id ("c000042" → 42,
// "c1000000" → 1000000); 0 for foreign names.
func idSeq(id string) int {
	digits, ok := strings.CutPrefix(id, "c")
	n, err := strconv.ParseUint(digits, 10, 31)
	if !ok || err != nil {
		return 0
	}
	return int(n)
}

// load reconstructs one campaign from its directory, or returns nil for a
// directory that holds none (the shared store's, or a failed Submit's). It
// reads the journal once, into buf, decodes no episode and writes nothing:
// a torn tail is the next run's or append's to truncate. It returns the
// buffer for the next load.
func (r *Registry) load(id string, buf []byte) (*Campaign, []byte) {
	now := r.clock()
	c := r.newCampaign(id, now)
	f, buf, err := c.read(buf)
	if err == nil && f.Spec == nil {
		f, err = r.upgrade(c)
	}
	if err == nil && f.Spec == nil {
		return nil, buf
	}
	if f.Spec != nil {
		c.Spec = *f.Spec
	}
	if r := f.Result; r != nil && r.Summary != nil {
		c.summary, c.canonical = *r.Summary, r.Canonical
	}
	if err == nil && f.State != nil {
		err = c.restore(f.State, now)
	}
	if err != nil {
		_ = c.toLocked(StateFailed, now, fmt.Sprintf("unreadable campaign: %v", err)) // Pending → Failed is legal
		return c, buf
	}

	// Ledger reconstruction: terminal campaigns re-apply their summary's
	// spend, capped at the budget as Settle caps it; live ones re-reserve
	// their full budget (forced — they were admitted before the crash, and
	// a restart never orphans admitted work).
	if c.state.Terminal() {
		r.ledgers.RestoreSpent(c.Spec.Tenant, min(c.summary.SpentS, c.Spec.BudgetS))
	} else {
		_ = r.ledgers.Reserve(c.Spec.Tenant, c.Spec.BudgetS, true) // forced: cannot fail
	}
	return c, buf
}

// newCampaign returns campaign id in StatePending, entered at now.
func (r *Registry) newCampaign(id string, now time.Time) *Campaign {
	return &Campaign{ID: id, dir: filepath.Join(r.root, id), fs: r.fs, state: StatePending, hist: pendingSince(now)}
}

// syncDir fsyncs path's directory so a create or remove in it is durable.
// Best-effort — the data already hit its file — but counted, never silent.
func (r *Registry) syncDir(path string) {
	if err := vfs.SyncDirOf(r.fs, path); err != nil {
		r.dirSyncErrs.Add(1)
	}
}

// Health is the registry's per-subsystem health snapshot — the body behind
// the service's /v1/healthz.
type Health struct {
	// Campaigns counts registered campaigns; ByState breaks them down.
	Campaigns int           `json:"campaigns"`
	ByState   map[State]int `json:"by_state,omitempty"`
	// Store is the shared result store's mode: "ok", "degraded" (sticky
	// write failure — hits keep serving and misses keep measuring, but new
	// results stop persisting) or "disabled".
	Store         string `json:"store"`
	StoreWriteErr string `json:"store_write_err,omitempty"`
	StorePutDrops int    `json:"store_put_drops,omitempty"`
	// DirSyncErrs counts directory-fsync failures of campaign creates and
	// of the upgrade of an earlier layout.
	DirSyncErrs int64 `json:"dir_sync_errs,omitempty"`
	// Degraded is true when any durable subsystem is below full fidelity.
	// The daemon keeps serving either way — that is the point.
	Degraded bool `json:"degraded"`
}

// Health snapshots per-subsystem health. The registry stays up through
// storage trouble: a degraded store or a failed campaign never takes the
// process down, and this snapshot is how operators find out.
func (r *Registry) Health() Health {
	h := Health{Store: "disabled", ByState: map[State]int{}}
	r.mu.Lock()
	h.Campaigns = len(r.campaigns)
	for _, c := range r.campaigns {
		h.ByState[c.State()]++ // pure counting: map order cannot leak
	}
	r.mu.Unlock()
	if r.store != nil {
		st := r.store.Stats()
		h.Store = "ok"
		if st.WriteErr != "" {
			h.Store = "degraded"
			h.StoreWriteErr = st.WriteErr
		}
		h.StorePutDrops = st.PutDrops
	}
	h.DirSyncErrs = r.dirSyncErrs.Load()
	h.Degraded = h.Store == "degraded" || h.DirSyncErrs > 0
	return h
}

// Submit validates and admits a new campaign: the tenant ledger reserves
// its budget, the campaign's journal is created holding the spec and the
// Pending state, and (unless autostart is disabled) a runner starts it
// immediately. The registry lists the campaign once its file is durable.
func (r *Registry) Submit(spec Spec) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.Fingerprint = "" // assigned by the first run, never by the caller
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if err := r.ledgers.Reserve(spec.Tenant, spec.BudgetS, false); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.seq++
	id := fmt.Sprintf("c%06d", r.seq)
	r.mu.Unlock()

	// The spec and the Pending state become durable under one file fsync,
	// then the campaign directory's and the root's. The exclusive create
	// refuses a reused id.
	c := r.newCampaign(id, r.clock())
	c.Spec = spec
	err := r.fs.MkdirAll(c.dir, 0o755)
	var jr *journal.Journal
	if err == nil {
		// Not yet listed, c is this goroutine's alone.
		jr, err = journal.CreateFS(r.fs, c.journalPath(), "", record{Spec: &c.Spec, State: c.stateRecordLocked()})
	}
	if err != nil {
		_ = r.fs.Remove(c.dir) // best effort: the scan skips a directory without a spec
		r.ledgers.Settle(spec.Tenant, spec.BudgetS, 0)
		return nil, fmt.Errorf("campaign: %w", err)
	}
	r.dirSyncErrs.Add(jr.DirSyncErrs())
	_ = jr.Close()   // the create synced every frame: closing cannot lose one
	r.syncDir(c.dir) // fsyncs the root, durably recording the new directory in it
	r.mu.Lock()
	r.campaigns[id] = c
	r.order = append(r.order, id)
	r.mu.Unlock()
	if !r.opts.DisableAutostart {
		_ = r.start(c, StatePending) // refused only once Close began: the next Open starts it
	}
	return c, nil
}

// StartPending starts a runner for every pending campaign (used by Open's
// autostart and by tests that submit with autostart disabled).
func (r *Registry) StartPending() {
	r.mu.Lock()
	var pending []*Campaign
	for _, id := range r.order {
		c := r.campaigns[id]
		if c.State() == StatePending {
			pending = append(pending, c)
		}
	}
	r.mu.Unlock()
	for _, c := range pending {
		_ = r.start(c, StatePending) // a lost race leaves c to whoever won it
	}
}

// start claims c for a new runner and spawns it. In one section of c.mu it
// checks that no runner owns c and that c is in from, moves c to Running
// and sets the runner's cancel, so a claim and an interrupt never
// interleave. It returns ErrClosed or ErrTransition on failure. Running is
// advisory on disk, like live progress: Pending → Running writes nothing,
// since load restores a Pending campaign whose fingerprint is assigned as
// interrupted. Paused → Running is recorded before start returns, or a
// crash would bring the resumed campaign back paused. Persistence trouble
// is not fatal to the run: the journal still makes the campaign resumable.
func (r *Registry) start(c *Campaign, from State) error {
	now := r.clock() // read outside the locks: the clock is an injected callback
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	c.mu.Lock()
	if c.cancel != nil || c.state != from {
		err := fmt.Errorf("%w: %s → %s", ErrTransition, c.state, StateRunning)
		c.mu.Unlock()
		r.mu.Unlock()
		return err
	}
	_ = c.toLocked(StateRunning, now, "") // Pending and Paused both lead to Running
	ctx, cancel := context.WithCancel(r.baseCtx)
	c.cancel = cancel
	var rec *persistedState
	if from == StatePaused {
		rec = c.stateRecordLocked()
	}
	c.mu.Unlock()
	r.wg.Add(1)
	r.mu.Unlock()
	if rec != nil {
		c.fileMu.Lock()
		c.persist(nil, record{State: rec})
		c.fileMu.Unlock()
	}
	go func() {
		defer r.wg.Done()
		defer cancel()
		r.run(ctx, c)
	}()
	return nil
}

// run executes one campaign to an outcome and settles the lifecycle,
// persistence and ledger for it: every outcome after PrepareCampaign goes
// through one end and the run's one Close. It owns c.cancel until end
// decides the outcome, and c.fileMu until it returns.
func (r *Registry) run(ctx context.Context, c *Campaign) {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	fail := func(reason string) { r.end(c, nil, nil, StateFailed, reason, "") }

	fx, err := c.Spec.fixture()
	if err != nil {
		fail(fmt.Sprintf("fixture: %v", err))
		return
	}
	cfg := c.config(Gate(ctx, r.sched, c.Spec.Tenant, c.Spec.Weight))
	first := c.Spec.Fingerprint == ""
	if r.store != nil {
		cfg.Store = r.store
		if c.Spec.WarmStart > 0 && first && c.Spec.WarmKeys == nil {
			// Resolve warm seeds exactly once, before the fingerprint below
			// freezes them into the campaign identity; the recorded
			// fingerprint marks them resolved, even when the store had none.
			c.Spec.WarmKeys = harness.ResolveWarmKeys(r.store, fx, c.Spec.WarmStart)
		}
		cfg.WarmStart = harness.ParseWarmKeys(fx.Space, c.Spec.WarmKeys)
	}

	fp := harness.CampaignFingerprint(fx, cfg)
	if !first && fp != c.Spec.Fingerprint {
		fail(fmt.Sprintf("prepare: %v:\n  journal: %s\n  campaign: %s", journal.ErrFingerprint, c.Spec.Fingerprint, fp))
		return
	}
	cr, err := harness.PrepareCampaign(fx, cfg)
	if err != nil {
		fail(fmt.Sprintf("prepare: %v", err))
		return
	}
	s, reason, canonical := r.execute(ctx, c, cr, fp, first)
	r.end(c, cr.Journal(), cr.Engine(), s, reason, canonical)
	_ = cr.Close() // an outcome whose record misses the disk is decided again by the next Open
}

// execute records the first run's identity, publishes the run's engine for
// polling and runs the campaign. It returns the outcome for end: Completed
// with the canonical, Failed with a reason, or nothing for an interrupted
// run, whose intent, if any, end takes.
func (r *Registry) execute(ctx context.Context, c *Campaign, cr *harness.CampaignRun, fp string, first bool) (s State, reason, canonical string) {
	if first {
		// One record holds the warm keys and the fingerprint computed from
		// them, so a restart neither resolves the keys again nor runs the
		// journal under another identity.
		spec := c.Spec
		spec.Fingerprint = fp
		if err := cr.Journal().AppendOwner(record{Spec: &spec}); err != nil {
			return StateFailed, fmt.Sprintf("record identity: %v", err), ""
		}
		c.Spec.Fingerprint = fp
	}
	c.mu.Lock()
	c.eng = cr.Engine()
	c.mu.Unlock()

	res, err := cr.Execute(ctx)
	switch {
	case ctx.Err() != nil:
		return "", "", ""
	case err != nil:
		return StateFailed, fmt.Sprintf("execute: %v", err), ""
	}
	if r.store != nil {
		// Make this campaign's published measurements visible to concurrent
		// processes sharing the store directory. Best-effort: the store is a
		// cache, and a flush failure must not fail a completed campaign.
		_ = r.store.Flush()
	}
	return StateCompleted, "", res.Canonical()
}

// end releases the runner's ownership of c and moves c to its outcome in
// one section of c.mu, so no Pause or Cancel is accepted and then ignored:
// a requested interrupt decides the outcome, even over a run that has just
// finished. Otherwise the outcome is s, with the canonical for Completed;
// an empty s, a run the registry's Close interrupted, moves nothing, and
// the next Open resumes it. The section also swaps the live engine for the
// summary of what eng measured, which the outcome's record carries, unless
// the last summary shows more spend (a resumed run cut short before its
// replay caught up) or there is no engine. A terminal outcome settles the
// summary's spend, capped at the reservation. The record goes through jr,
// the run's journal, if any. The caller is c's runner and holds c.fileMu.
func (r *Registry) end(c *Campaign, jr *journal.Journal, eng *engine.Engine, s State, reason, canonical string) {
	now := r.clock() // read outside the lock: the clock is an injected callback
	var sum *summary
	if eng != nil {
		sum = engineSummary(eng)
	}
	c.mu.Lock()
	if c.intent != "" {
		s, reason, canonical = c.intent, string(c.intent)+" by request", ""
	}
	c.cancel, c.intent, c.eng = nil, "", nil
	if s == "" {
		c.mu.Unlock()
		return
	}
	if sum != nil && sum.SpentS >= c.summary.SpentS {
		c.summary = *sum
	}
	kept := c.summary
	c.canonical = canonical
	_ = c.toLocked(s, now, reason) // an owned campaign is Running, which leads to every outcome
	rec := record{State: c.stateRecordLocked(), Result: &persistedResult{Canonical: canonical, Summary: &kept}}
	c.mu.Unlock()
	if s.Terminal() {
		r.ledgers.Settle(c.Spec.Tenant, c.Spec.BudgetS, kept.SpentS)
	}
	c.persist(jr, rec)
}

// Get returns the campaign by id.
func (r *Registry) Get(id string) (*Campaign, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.campaigns[id]
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCampaign, id)
	}
	return c, nil
}

// List returns campaign statuses in submission order, optionally filtered
// by tenant ("" = all).
func (r *Registry) List(tenant string) []Status {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	camps := make([]*Campaign, 0, len(ids))
	for _, id := range ids {
		camps = append(camps, r.campaigns[id])
	}
	r.mu.Unlock()
	out := make([]Status, 0, len(camps))
	for _, c := range camps {
		if tenant != "" && c.Spec.Tenant != tenant {
			continue
		}
		out = append(out, c.Status())
	}
	return out
}

// Cancel requests cancellation of a campaign. A campaign a runner owns is
// interrupted and lands in StateCanceled; a pending or paused one that no
// runner owns cancels directly. Cancelling a terminal campaign — or one
// whose pause or cancellation is already in flight — returns ErrTransition.
func (r *Registry) Cancel(id string) error { return r.interrupt(id, StateCanceled) }

// Pause requests a pause: the run context is cancelled, the journal keeps
// every paid-for episode, and ResumeCampaign later re-runs through replay.
func (r *Registry) Pause(id string) error { return r.interrupt(id, StatePaused) }

// interrupt decides in one section of c.mu: a runner that owns c is asked
// to stop, unless an interrupt is already requested; a Pending or Paused
// campaign no runner owns cancels directly; anything else is refused. The
// ledger settle and the record come after c.mu is released, and fileMu is
// taken only around the append: a runner holds it for its whole run.
func (r *Registry) interrupt(id string, want State) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	now := r.clock() // read outside the lock: the clock is an injected callback
	var rec *persistedState
	var spent float64
	c.mu.Lock()
	runner := c.cancel
	switch {
	case runner != nil && c.intent != "":
		err = fmt.Errorf("%w: %s already requested", ErrTransition, c.intent)
	case runner != nil:
		c.intent = want
	case want == StateCanceled && (c.state == StatePending || c.state == StatePaused):
		_ = c.toLocked(StateCanceled, now, "canceled by request") // legal from both
		rec, spent = c.stateRecordLocked(), c.summary.SpentS
	default:
		err = fmt.Errorf("%w: %s → %s", ErrTransition, c.state, want)
	}
	c.mu.Unlock()
	switch {
	case err != nil:
		return err
	case rec != nil:
		r.ledgers.Settle(c.Spec.Tenant, c.Spec.BudgetS, spent)
		c.fileMu.Lock()
		c.persist(nil, record{State: rec})
		c.fileMu.Unlock()
	default:
		runner()
	}
	return nil
}

// ResumeCampaign restarts a paused campaign through the journal replay
// path: the runner re-executes the campaign from the start and the engine
// serves every journaled episode back before any live measurement runs.
// Resuming anything else returns ErrTransition.
func (r *Registry) ResumeCampaign(id string) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	return r.start(c, StatePaused)
}

// Close gracefully shuts the registry down: new submissions are refused,
// every running campaign's context is cancelled (in-flight episodes abort
// as ClassCanceled — never journaled, so at most unaccounted work is
// re-measured on resume), and runner goroutines are drained; each runner's
// Execute synced its journal before returning. No state is recorded: on
// disk an interrupted campaign is still Pending (or Running after a resume
// from pause), which is precisely what makes the next Open resume it.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.baseCancel()
	r.wg.Wait()
	if r.store != nil {
		// After the runner drain: no campaign can publish anymore.
		return r.store.Close()
	}
	return nil
}
