package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
	// Clock is the wall-clock source for lifecycle stamps (nil = real time).
	Clock engine.Clock
	// Slots bounds concurrent live measurements across all campaigns
	// (the weighted-fair scheduler's capacity). 0 defaults to 2×GOMAXPROCS
	// via NewScheduler's caller, capped sensibly by Open.
	Slots int
	// TenantBudgetS is the default per-tenant virtual budget (0 = tenants
	// are unmetered unless SetTenantBudget is called).
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
	// StoreDir overrides the store location (default <root>/store); implies
	// EnableStore. Lets several registry roots share one store.
	StoreDir string
	// FS is the filesystem seam for every durable operation the registry,
	// its campaigns' journals, and the shared store perform (nil = the real
	// filesystem, vfs.OS). Chaos tests inject a vfs.FaultFS here.
	FS vfs.FS
}

// Registry owns every campaign under one root directory: one subdirectory
// per campaign holding spec.json, state.json, journal.wal and (once
// completed) result.json. Open scans the root, quarantines campaigns whose
// journal cannot be trusted, reconstructs tenant ledgers, and resumes every
// campaign that was pending or running when the previous process died —
// through the deterministic journal replay path, so the registry as a whole
// survives kill -9 with no lost work beyond unaccounted episodes.
type Registry struct {
	root     string
	fs       vfs.FS
	clock    engine.Clock
	sched    *Scheduler
	ledgers  *Ledgers
	opts     Options
	store    *store.Store // shared result store; nil when disabled
	storeDir string       // the store's directory; scan must not load it as a campaign

	// dirSyncErrs counts directory-fsync failures across the registry's own
	// persistence (spec/state/result writes, quarantine renames) — durable
	// data whose directory entry may not survive a power loss. Surfaced by
	// Health.
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
// campaign directories, reconstructs ledgers, and — unless autostart is
// disabled — resumes interrupted campaigns.
func Open(dir string, opts Options) (*Registry, error) {
	fsys := vfs.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open registry: %w", err)
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now // value use: the sanctioned wall-clock seam (engine.Clock)
	}
	slots := opts.Slots
	if slots <= 0 {
		slots = 8
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		root:       dir,
		fs:         fsys,
		clock:      clock,
		sched:      NewScheduler(slots),
		ledgers:    NewLedgers(opts.TenantBudgetS),
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		campaigns:  map[string]*Campaign{},
	}
	if opts.EnableStore || opts.StoreDir != "" {
		sdir := opts.StoreDir
		if sdir == "" {
			sdir = filepath.Join(dir, "store")
		}
		st, err := store.OpenFS(fsys, sdir)
		if err != nil {
			cancel()
			return nil, err
		}
		r.store = st
		r.storeDir = sdir
	}
	if err := r.scan(); err != nil {
		cancel()
		if r.store != nil {
			_ = r.store.Close()
		}
		return nil, err
	}
	if !opts.DisableAutostart {
		r.StartPending()
	}
	return r, nil
}

// Ledgers exposes the tenant budget ledgers (the service layer reads
// snapshots and sets budgets through it).
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

// scan loads every campaign directory under the root. A campaign whose
// journal is corrupt or was written under a different fingerprint is
// quarantined — journal renamed to journal.wal.bad, state Failed with the
// reason recorded — and the scan continues; one bad campaign never aborts
// registry startup.
func (r *Registry) scan() error {
	entries, err := r.fs.ReadDir(r.root)
	if err != nil {
		return fmt.Errorf("campaign: scan: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// The shared result store lives under the root too (default
		// <root>/store); its directory is not a campaign. Skip the reserved
		// name even when the store is disabled this run — a root that once
		// ran with a store must not resurrect it as a failed campaign.
		if e.Name() == "store" || (r.storeDir != "" && filepath.Join(r.root, e.Name()) == r.storeDir) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names) // deterministic load order; ids sort as submission order
	for _, name := range names {
		c, err := r.load(name)
		if err != nil {
			return err
		}
		r.campaigns[c.ID] = c
		r.order = append(r.order, c.ID)
		if n := idSeq(c.ID); n > r.seq {
			r.seq = n
		}
	}
	return nil
}

// idSeq parses the numeric sequence out of a campaign id ("c000042" → 42);
// 0 for foreign names.
func idSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "c%06d", &n); err != nil {
		return 0
	}
	return n
}

// load reconstructs one campaign from its directory. Load failures are
// quarantined into a Failed campaign rather than propagated: startup
// hygiene demands the registry come up with every loadable campaign intact.
func (r *Registry) load(id string) (*Campaign, error) {
	c := &Campaign{ID: id, dir: filepath.Join(r.root, id), fs: r.fs, dirSyncErrs: &r.dirSyncErrs}

	if err := readJSON(r.fs, c.specPath(), &c.Spec); err != nil {
		c.lc = NewLifecycle(r.clock)
		r.failLoaded(c, fmt.Sprintf("unreadable spec.json: %v", err))
		return c, nil
	}

	var ps persistedState
	switch err := readJSON(r.fs, c.statePath(), &ps); {
	case err == nil:
		lc, lerr := RestoreLifecycle(r.clock, ps.State, ps.Transitions)
		if lerr != nil {
			c.lc = NewLifecycle(r.clock)
			r.failLoaded(c, fmt.Sprintf("unreadable state.json: %v", lerr))
			return c, nil
		}
		c.lc = lc
		c.settledS = ps.SettledS
	case errors.Is(err, os.ErrNotExist):
		// Crash between mkdir and the first state write: a fresh pending
		// campaign.
		c.lc = NewLifecycle(r.clock)
	default:
		c.lc = NewLifecycle(r.clock)
		r.failLoaded(c, fmt.Sprintf("unreadable state.json: %v", err))
		return c, nil
	}

	// Startup hygiene: validate the journal before trusting the campaign.
	// ErrCorrupt (untrustable header) and ErrFingerprint (journal from a
	// differently-configured campaign) quarantine this one campaign; torn
	// tails are not errors — journal.Open truncates and recovers them.
	if !c.lc.State().Terminal() {
		if _, statErr := r.fs.Stat(c.journalPath()); statErr == nil {
			jr, jerr := journal.OpenFS(r.fs, c.journalPath(), c.Spec.Fingerprint)
			switch {
			case jerr == nil:
				_ = jr.Close() // validation-only open; nothing was written
			case errors.Is(jerr, journal.ErrCorrupt), errors.Is(jerr, journal.ErrFingerprint):
				r.quarantineJournal(c, jerr)
				return c, nil
			default:
				r.failLoaded(c, fmt.Sprintf("journal unreadable: %v", jerr))
				return c, nil
			}
		}
	}

	// Ledger reconstruction: terminal campaigns re-apply their settled
	// spend; live ones re-reserve their full budget (forced — they were
	// admitted before the crash, and a restart never orphans admitted work).
	switch c.lc.State() {
	case StateCompleted:
		if err := c.loadResult(); err != nil {
			r.failLoaded(c, fmt.Sprintf("completed campaign without readable result.json: %v", err))
			return c, nil
		}
		r.ledgers.RestoreSpent(c.Spec.Tenant, c.settledS)
	case StateFailed, StateCanceled:
		r.ledgers.RestoreSpent(c.Spec.Tenant, c.settledS)
	default:
		_ = r.ledgers.Reserve(c.Spec.Tenant, c.Spec.BudgetS, true) // forced: cannot fail
	}
	return c, nil
}

// failLoaded forces a loaded campaign into StateFailed with the reason and
// persists the state (best-effort — the load itself must not fail).
func (r *Registry) failLoaded(c *Campaign, reason string) {
	if err := c.lc.To(StateFailed, reason); err != nil {
		// Terminal already (e.g. a Failed campaign whose journal rotted
		// later): the recorded state stands.
		return
	}
	// Best-effort persistence: the disk is already misbehaving for this
	// campaign, and the in-memory Failed state and reason still stand.
	_ = c.persistState()
}

// quarantineJournal renames the untrusted journal to journal.wal.bad and
// fails the campaign with the precise reason, preserving the bytes for
// post-mortem. The registry keeps serving every other campaign.
func (r *Registry) quarantineJournal(c *Campaign, cause error) {
	bad := c.journalPath() + ".bad"
	if err := r.fs.Rename(c.journalPath(), bad); err != nil {
		r.failLoaded(c, fmt.Sprintf("journal quarantine failed: %v (original error: %v)", err, cause))
		return
	}
	r.syncDir(bad)
	r.failLoaded(c, fmt.Sprintf("journal quarantined to %s: %v", filepath.Base(bad), cause))
}

// syncDir fsyncs path's directory so a rename or create is durable.
// Best-effort — the data already hit its file — but counted, never silent.
func (r *Registry) syncDir(path string) {
	if err := vfs.SyncDirOf(r.fs, path); err != nil {
		r.dirSyncErrs.Add(1)
	}
}

// DirSyncErrs returns the count of directory-fsync failures across the
// registry's persistence operations.
func (r *Registry) DirSyncErrs() int64 { return r.dirSyncErrs.Load() }

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
	// DirSyncErrs counts directory-fsync failures across registry
	// persistence (spec/state/result writes, quarantine renames).
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
// its budget, the campaign directory and spec are persisted, and (unless
// autostart is disabled) a runner starts it immediately.
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
	c := &Campaign{
		ID: id, Spec: spec, dir: filepath.Join(r.root, id),
		lc: NewLifecycle(r.clock), fs: r.fs, dirSyncErrs: &r.dirSyncErrs,
	}
	r.campaigns[id] = c
	r.order = append(r.order, id)
	r.mu.Unlock()

	if err := r.fs.MkdirAll(c.dir, 0o755); err != nil {
		r.evict(c)
		return nil, fmt.Errorf("campaign: mkdir: %w", err)
	}
	r.syncDir(filepath.Join(c.dir, "spec.json")) // durably record the new directory in the root
	if err := c.persistSpec(); err != nil {
		r.evict(c)
		return nil, err
	}
	if err := c.persistState(); err != nil {
		r.evict(c)
		return nil, err
	}
	if !r.opts.DisableAutostart {
		r.start(c)
	}
	return c, nil
}

// evict rolls back a failed admission: the reservation is released and the
// campaign disappears from the registry.
func (r *Registry) evict(c *Campaign) {
	r.ledgers.Settle(c.Spec.Tenant, c.Spec.BudgetS, 0)
	r.mu.Lock()
	delete(r.campaigns, c.ID)
	for i, oid := range r.order {
		if oid == c.ID {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
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
	// Persistence trouble is not fatal to the run: the journal still makes
	// the campaign resumable, at worst from Pending.
	_ = c.persistState()
	go func() {
		defer r.wg.Done()
		defer cancel()
		r.run(ctx, c)
	}()
}

// run executes one campaign to an outcome and settles the lifecycle,
// persistence and ledger for it. It owns c.cancel until it returns.
func (r *Registry) run(ctx context.Context, c *Campaign) {
	finishInterrupt := func() {
		c.mu.Lock()
		intent := c.intent
		c.intent = ""
		c.cancel, c.intent = nil, ""
		c.mu.Unlock()
		switch intent {
		case StateCanceled:
			r.settleTerminal(c, StateCanceled, "canceled by request")
		case StatePaused:
			if err := c.lc.To(StatePaused, "paused by request"); err == nil {
				_ = c.persistState() // best-effort; journal already holds the episodes
			}
		default:
			// Registry shutdown: no transition — the persisted Running
			// state is exactly what makes the next Open resume this
			// campaign.
		}
	}

	fx, err := c.Spec.fixture()
	if err != nil {
		c.mu.Lock()
		c.cancel, c.intent = nil, ""
		c.mu.Unlock()
		r.settleTerminal(c, StateFailed, fmt.Sprintf("fixture: %v", err))
		return
	}

	cfg := c.config(Gate(ctx, r.sched, c.Spec.Tenant, c.Spec.Weight))
	if r.store != nil {
		cfg.Store = r.store
		if c.Spec.WarmStart > 0 && c.Spec.Fingerprint == "" && c.Spec.WarmKeys == nil {
			// Resolve warm seeds exactly once, before the fingerprint below
			// freezes them into the campaign identity. ResolveWarmKeys
			// returns a non-nil slice even when the store has nothing, so an
			// empty resolution persists as "resolved, cold" and is never
			// retried against a store that has since grown.
			c.Spec.WarmKeys = harness.ResolveWarmKeys(r.store, fx, c.Spec.WarmStart)
		}
		cfg.WarmStart = harness.ParseWarmKeys(fx.Space, c.Spec.WarmKeys)
	}
	fp := harness.CampaignFingerprint(fx, cfg)
	if c.Spec.Fingerprint == "" {
		c.Spec.Fingerprint = fp
		_ = c.persistSpec() // journal identity is still enforced by the journal itself
	}

	cr, err := harness.PrepareCampaign(fx, cfg)
	if err != nil {
		c.mu.Lock()
		c.cancel, c.intent = nil, ""
		c.mu.Unlock()
		if errors.Is(err, journal.ErrCorrupt) || errors.Is(err, journal.ErrFingerprint) {
			r.quarantineJournal(c, err)
			r.settleTerminalLedgerOnly(c)
			return
		}
		r.settleTerminal(c, StateFailed, fmt.Sprintf("prepare: %v", err))
		return
	}
	c.mu.Lock()
	c.eng = cr.Engine()
	c.mu.Unlock()

	res, err := cr.Execute(ctx)
	_ = cr.Close() // teardown after Execute synced every frame; nothing can act on the error
	c.mu.Lock()
	c.eng = nil
	c.mu.Unlock()

	if ctx.Err() != nil {
		finishInterrupt()
		return
	}
	c.mu.Lock()
	c.cancel, c.intent = nil, ""
	c.mu.Unlock()
	if err != nil {
		r.settleTerminal(c, StateFailed, fmt.Sprintf("execute: %v", err))
		return
	}
	c.mu.Lock()
	c.result, c.canonical = res, res.Canonical()
	c.mu.Unlock()
	if perr := c.persistResult(res); perr != nil {
		r.settleTerminal(c, StateFailed, fmt.Sprintf("persist result: %v", perr))
		return
	}
	if r.store != nil {
		// Make this campaign's published measurements visible to concurrent
		// processes sharing the store directory. Best-effort: the store is a
		// cache, and a flush failure must not fail a completed campaign.
		_ = r.store.Flush()
	}
	r.settleTerminalWithSpend(c, StateCompleted, "", res.Stats.SpentS)
}

// settleTerminal moves c to a terminal state, settles the tenant ledger
// (charging the engine's actual spend when a live engine or result is
// available, else zero), and persists the state.
func (r *Registry) settleTerminal(c *Campaign, s State, reason string) {
	spent := 0.0
	c.mu.Lock()
	if c.result != nil {
		spent = c.result.Stats.SpentS
	} else if c.eng != nil {
		spent = c.eng.SpentS()
	}
	c.mu.Unlock()
	r.settleTerminalWithSpend(c, s, reason, spent)
}

// settleTerminalWithSpend is settleTerminal with an explicit spend.
func (r *Registry) settleTerminalWithSpend(c *Campaign, s State, reason string, spentS float64) {
	if err := c.lc.To(s, reason); err != nil {
		return // already terminal; ledger settled by whoever got there first
	}
	settled := spentS
	if settled > c.Spec.BudgetS {
		settled = c.Spec.BudgetS
	}
	if settled < 0 {
		settled = 0
	}
	c.mu.Lock()
	c.settledS = settled
	c.mu.Unlock()
	r.ledgers.Settle(c.Spec.Tenant, c.Spec.BudgetS, settled)
	_ = c.persistState() // in-memory state stands; a restart re-settles from the journal
}

// settleTerminalLedgerOnly releases the ledger reservation for a campaign
// whose terminal transition already happened (quarantine path).
func (r *Registry) settleTerminalLedgerOnly(c *Campaign) {
	c.mu.Lock()
	already := c.settledS
	c.mu.Unlock()
	if already == 0 {
		r.ledgers.Settle(c.Spec.Tenant, c.Spec.BudgetS, 0)
	}
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
			r.settleTerminal(c, StateCanceled, "canceled by request")
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
// Execute synced its journal before returning. Campaign state files keep
// their Running state on disk, which is precisely what makes the next Open
// resume them.
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
