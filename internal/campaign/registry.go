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

// Store exposes the shared result store; nil when disabled.
func (r *Registry) Store() *store.Store { return r.store }

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
	c := &Campaign{ID: id, dir: filepath.Join(r.root, id), fs: r.fs, lc: NewLifecycle(r.clock)}
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
	if f.Result != nil {
		c.summary, c.canonical = f.Result.Summary, f.Result.Canonical
	}
	if err == nil && f.State != nil {
		// A Pending campaign whose fingerprint is assigned was running when
		// its process died: the registry does not record Pending → Running.
		var lc *Lifecycle
		if lc, err = RestoreLifecycle(r.clock, f.State.State, f.State.Transitions, c.Spec.Fingerprint != ""); err == nil {
			c.lc, c.settledS = lc, f.State.SettledS
		}
	}
	if err != nil {
		_ = c.lc.To(StateFailed, fmt.Sprintf("unreadable campaign: %v", err)) // Pending → Failed is legal
		return c, buf
	}

	// Ledger reconstruction: terminal campaigns re-apply their settled
	// spend; live ones re-reserve their full budget (forced — they were
	// admitted before the crash, and a restart never orphans admitted work).
	if c.lc.State().Terminal() {
		r.ledgers.RestoreSpent(c.Spec.Tenant, c.settledS)
	} else {
		_ = r.ledgers.Reserve(c.Spec.Tenant, c.Spec.BudgetS, true) // forced: cannot fail
	}
	return c, buf
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
		h.ByState[c.lc.State()]++ // pure counting: map order cannot leak
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
	c := &Campaign{ID: id, Spec: spec, dir: filepath.Join(r.root, id), lc: NewLifecycle(r.clock), fs: r.fs}
	err := r.fs.MkdirAll(c.dir, 0o755)
	var jr *journal.Journal
	if err == nil {
		jr, err = journal.CreateFS(r.fs, c.journalPath(), "", record{Spec: &c.Spec, State: c.stateRecord()})
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
		r.start(c)
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
		if c.lc.State() == StatePending {
			pending = append(pending, c)
		}
	}
	r.mu.Unlock()
	for _, c := range pending {
		r.start(c)
	}
}

// start transitions a pending or paused campaign to Running and spawns its
// runner goroutine. Lost races (someone else started it) are no-ops.
func (r *Registry) start(c *Campaign) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(r.baseCtx)
	c.mu.Lock()
	if c.cancel != nil { // already owned by a runner
		c.mu.Unlock()
		r.mu.Unlock()
		cancel()
		return
	}
	c.cancel = cancel
	c.intent = ""
	c.mu.Unlock()
	// Owning c.cancel, this runner is the only one that can move c out of
	// Pending or Paused toward Running.
	resumed := c.lc.State() == StatePaused
	if err := c.lc.To(StateRunning, ""); err != nil {
		c.mu.Lock()
		c.cancel, c.intent = nil, ""
		c.mu.Unlock()
		r.mu.Unlock()
		cancel()
		return
	}
	r.wg.Add(1)
	r.mu.Unlock()
	// Running is advisory on disk, like live progress. Pending → Running
	// writes nothing: load restores a Pending campaign whose fingerprint is
	// assigned as interrupted. Paused → Running must be written, or a crash
	// would bring the resumed campaign back paused. Persistence trouble is
	// not fatal to the run: the journal still makes the campaign resumable.
	if resumed {
		c.fileMu.Lock()
		c.persist(nil, record{State: c.stateRecord()})
		c.fileMu.Unlock()
	}
	go func() {
		defer r.wg.Done()
		defer cancel()
		r.run(ctx, c)
	}()
}

// run executes one campaign to an outcome and settles the lifecycle,
// persistence and ledger for it. It owns c.cancel until it has an outcome,
// and c.fileMu until it returns.
func (r *Registry) run(ctx context.Context, c *Campaign) {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	// release ends the runner's ownership and returns the interrupt a
	// caller requested, if any.
	release := func() State {
		c.mu.Lock()
		defer c.mu.Unlock()
		intent := c.intent
		c.cancel, c.intent = nil, ""
		return intent
	}
	fail := func(reason string) {
		release()
		r.finish(c, nil, StateFailed, reason)
	}

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
	if first {
		// One record holds the warm keys and the fingerprint computed from
		// them, in place of a spec rewrite: a restart neither resolves the
		// keys again nor runs the journal under another identity.
		spec := c.Spec
		spec.Fingerprint = fp
		if err := cr.Journal().AppendOwner(record{Spec: &spec}); err != nil {
			_ = cr.Close() // the append error is the one to report
			fail(fmt.Sprintf("record identity: %v", err))
			return
		}
		c.Spec.Fingerprint = fp
	}
	c.mu.Lock()
	c.eng = cr.Engine()
	c.mu.Unlock()

	res, err := cr.Execute(ctx)
	c.mu.Lock()
	c.eng = nil
	c.mu.Unlock()

	if ctx.Err() != nil {
		_ = cr.Close() // teardown after Execute synced every frame
		switch release() {
		case StateCanceled:
			r.finish(c, nil, StateCanceled, "canceled by request")
		case StatePaused:
			if err := c.lc.To(StatePaused, "paused by request"); err == nil {
				c.persist(nil, record{State: c.stateRecord()})
			}
		default:
			// Registry shutdown: no transition. The recorded state is
			// Pending (interrupted once the fingerprint is assigned) or
			// Running (after a resume from pause), and the next Open
			// resumes either.
		}
		return
	}
	if err != nil {
		_ = cr.Close() // the execute error is the one to report
		fail(fmt.Sprintf("execute: %v", err))
		return
	}
	release()
	sum := summarize(res.Best, res.BestMS, res.Found, res.Stats, res.Replayed)
	c.mu.Lock()
	c.summary, c.canonical = &sum, res.Canonical()
	c.mu.Unlock()
	if r.store != nil {
		// Make this campaign's published measurements visible to concurrent
		// processes sharing the store directory. Best-effort: the store is a
		// cache, and a flush failure must not fail a completed campaign.
		_ = r.store.Flush()
	}
	// The result and the Completed state share one record, which the
	// journal's Close syncs.
	r.finish(c, cr.Journal(), StateCompleted, "")
	_ = cr.Close() // a Completed state that misses the disk resumes to the same result
}

// finish moves c to the terminal state s, settles the tenant's reservation
// to the spend of the campaign's summary or live engine (zero without
// either), capped at the reservation, and records the state — with the
// canonical and the summary, for Completed — through jr when the run holds
// its journal open.
// A campaign already terminal keeps its state. The caller holds c.fileMu.
func (r *Registry) finish(c *Campaign, jr *journal.Journal, s State, reason string) {
	if err := c.lc.To(s, reason); err != nil {
		return // already terminal; ledger settled by whoever got there first
	}
	c.mu.Lock()
	spent := 0.0
	if c.summary != nil {
		spent = c.summary.SpentS
	} else if c.eng != nil {
		spent = c.eng.SpentS()
	}
	c.settledS = min(max(spent, 0), c.Spec.BudgetS)
	settled := c.settledS
	var res *persistedResult
	if s == StateCompleted {
		res = &persistedResult{Canonical: c.canonical, Summary: c.summary}
	}
	c.mu.Unlock()
	r.ledgers.Settle(c.Spec.Tenant, c.Spec.BudgetS, settled)
	c.persist(jr, record{State: c.stateRecord(), Result: res})
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

// Cancel requests cancellation of a campaign. A pending or running campaign
// is interrupted and lands in StateCanceled; a paused one cancels directly.
// Cancelling a terminal campaign — or re-cancelling one whose cancellation
// is already in flight — returns ErrTransition.
func (r *Registry) Cancel(id string) error { return r.interrupt(id, StateCanceled) }

// Pause requests a pause: the run context is cancelled, the journal keeps
// every paid-for episode, and ResumeCampaign later re-runs through replay.
func (r *Registry) Pause(id string) error { return r.interrupt(id, StatePaused) }

func (r *Registry) interrupt(id string, want State) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	cancel, intent := c.cancel, c.intent
	if cancel != nil && intent == "" {
		c.intent = want
	}
	c.mu.Unlock()

	if cancel != nil {
		if intent != "" {
			return fmt.Errorf("%w: %s already requested", ErrTransition, intent)
		}
		cancel()
		return nil
	}
	// No runner owns the campaign: transition directly (paused → canceled
	// is the meaningful case; everything illegal is refused here).
	if want == StateCanceled {
		state := c.lc.State()
		if state == StatePaused || state == StatePending {
			c.fileMu.Lock()
			r.finish(c, nil, StateCanceled, "canceled by request")
			c.fileMu.Unlock()
			return nil
		}
	}
	return fmt.Errorf("%w: %s → %s", ErrTransition, c.lc.State(), want)
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
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return ErrClosed
	}
	c.mu.Lock()
	owned := c.cancel != nil
	c.mu.Unlock()
	if owned || c.lc.State() != StatePaused {
		return fmt.Errorf("%w: %s → %s", ErrTransition, c.lc.State(), StateRunning)
	}
	r.start(c)
	return nil
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
