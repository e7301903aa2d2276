package campaign

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Campaign is one tuning campaign owned by the registry: a durable spec, a
// lifecycle state machine, a journal-backed directory, and (while running)
// a live engine for progress polling.
type Campaign struct {
	// ID is the registry-assigned identifier, also the directory name.
	ID string
	// Spec is the durable description (Spec.Fingerprint is filled by the
	// first run; everything else is immutable after submit).
	Spec Spec

	dir string
	lc  *Lifecycle
	// fs is the registry's filesystem seam; dirSyncErrs points at the
	// registry-wide directory-fsync failure counter every atomic persist
	// feeds.
	fs          vfs.FS
	dirSyncErrs *atomic.Int64

	mu        sync.Mutex
	cancel    context.CancelFunc // non-nil while a runner owns the campaign
	intent    State              // StatePaused or StateCanceled when an interrupt was requested
	eng       *engine.Engine     // live engine while running
	result    *harness.CampaignResult
	canonical string
	settledS  float64 // spend settled against the tenant ledger (terminal states)
}

func (c *Campaign) specPath() string    { return filepath.Join(c.dir, "spec.json") }
func (c *Campaign) statePath() string   { return filepath.Join(c.dir, "state.json") }
func (c *Campaign) resultPath() string  { return filepath.Join(c.dir, "result.json") }
func (c *Campaign) journalPath() string { return filepath.Join(c.dir, "journal.wal") }

// State returns the campaign's current lifecycle state.
func (c *Campaign) State() State { return c.lc.State() }

// persistState writes state.json atomically: the lifecycle position plus
// the settled spend, everything a restart needs beyond spec and journal.
func (c *Campaign) persistState() error {
	c.mu.Lock()
	settled := c.settledS
	c.mu.Unlock()
	return writeJSONAtomic(c.fs, c.statePath(), persistedState{
		State:       c.lc.State(),
		SettledS:    settled,
		Transitions: c.lc.History(),
	}, c.dirSyncErrs)
}

// persistSpec writes spec.json atomically.
func (c *Campaign) persistSpec() error {
	return writeJSONAtomic(c.fs, c.specPath(), c.Spec, c.dirSyncErrs)
}

// persistedResult is the result.json payload: the canonical string the
// resume acceptance criteria compare byte-for-byte, alongside the full
// structured result.
type persistedResult struct {
	Canonical string                  `json:"canonical"`
	Result    *harness.CampaignResult `json:"result"`
}

// persistResult writes result.json atomically.
func (c *Campaign) persistResult(res *harness.CampaignResult) error {
	return writeJSONAtomic(c.fs, c.resultPath(), persistedResult{Canonical: res.Canonical(), Result: res}, c.dirSyncErrs)
}

// loadResult restores a completed campaign's result from result.json.
func (c *Campaign) loadResult() error {
	var pr persistedResult
	if err := readJSON(c.fs, c.resultPath(), &pr); err != nil {
		return err
	}
	c.mu.Lock()
	c.result, c.canonical = pr.Result, pr.Canonical
	c.mu.Unlock()
	return nil
}

// config maps the spec onto the harness campaign configuration. wrap is the
// fairness gate (nil for ungated runs).
func (c *Campaign) config(wrap func(sim.Objective) sim.Objective) harness.CampaignConfig {
	cfg := harness.CampaignConfig{
		Method:      c.Spec.Method,
		BudgetS:     c.Spec.BudgetS,
		Seed:        c.Spec.Seed,
		Repeats:     c.Spec.Repeats,
		Quarantine:  c.Spec.Quarantine,
		JournalPath: c.journalPath(),
		FS:          c.fs,
	}
	if wrap != nil {
		cfg.Wrap = wrap
	}
	return cfg
}

// Status is one campaign's externally-visible snapshot: spec identity,
// lifecycle position, live progress while running, and the canonical result
// once completed.
type Status struct {
	ID      string  `json:"id"`
	Tenant  string  `json:"tenant"`
	Method  string  `json:"method"`
	Stencil string  `json:"stencil"`
	Arch    string  `json:"arch"`
	Weight  float64 `json:"weight"`
	BudgetS float64 `json:"budget_s"`
	Seed    int64   `json:"seed"`

	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`

	// SpentS and Evals are live engine progress while running, final
	// numbers once terminal. Replayed counts journal-served episodes.
	SpentS   float64 `json:"spent_s"`
	Evals    int     `json:"evals"`
	Replayed int     `json:"replayed"`

	// StoreHits/StoreMisses count cross-campaign result-store traffic;
	// WarmStartSeeds counts prior bests injected into this run's search.
	// All zero when the registry runs without a store.
	StoreHits      int `json:"store_hits,omitempty"`
	StoreMisses    int `json:"store_misses,omitempty"`
	WarmStartSeeds int `json:"warm_start_seeds,omitempty"`

	Found     bool         `json:"found"`
	BestKey   string       `json:"best_key,omitempty"`
	BestMS    float64      `json:"best_ms,omitempty"`
	Canonical string       `json:"canonical,omitempty"`
	History   []Transition `json:"history"`
}

// Status snapshots the campaign.
func (c *Campaign) Status() Status {
	st := Status{
		ID:      c.ID,
		Tenant:  c.Spec.Tenant,
		Method:  c.Spec.Method,
		Stencil: c.Spec.Stencil,
		Arch:    c.Spec.Arch,
		Weight:  c.Spec.Weight,
		BudgetS: c.Spec.BudgetS,
		Seed:    c.Spec.Seed,
		State:   c.lc.State(),
		Reason:  c.lc.Reason(),
		History: c.lc.History(),
	}
	c.mu.Lock()
	eng, res, canonical := c.eng, c.result, c.canonical
	c.mu.Unlock()
	switch {
	case res != nil:
		st.SpentS = res.Stats.SpentS
		st.Evals = res.Stats.Evaluations
		st.Replayed = res.Replayed
		st.StoreHits = res.Stats.StoreHits
		st.StoreMisses = res.Stats.StoreMisses
		st.WarmStartSeeds = res.Stats.WarmStartSeeds
		st.Found = res.Found
		if res.Found {
			st.BestKey = res.Best.Key()
			st.BestMS = res.BestMS
		}
		st.Canonical = canonical
	case eng != nil:
		st.SpentS = eng.SpentS()
		st.Evals = eng.Evals()
		st.Replayed = eng.Replayed()
		es := eng.Stats()
		st.StoreHits = es.StoreHits
		st.StoreMisses = es.StoreMisses
		st.WarmStartSeeds = es.WarmStartSeeds
		if set, ms, ok := eng.Best(); ok {
			st.Found, st.BestKey, st.BestMS = true, set.Key(), ms
		}
	}
	return st
}

// Result returns the completed campaign's result and canonical string, or
// ok=false while the campaign has not completed.
func (c *Campaign) Result() (*harness.CampaignResult, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.result == nil {
		return nil, "", false
	}
	return c.result, c.canonical, true
}
