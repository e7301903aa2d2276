package campaign

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/vfs"
)

// Campaign is one tuning campaign owned by the registry: a durable spec, a
// lifecycle state machine, one journal file holding both, and (while
// running) a live engine for progress polling.
type Campaign struct {
	// ID is the registry-assigned identifier, also the directory name.
	ID string
	// Spec is the durable description (Spec.Fingerprint is filled by the
	// first run; everything else is immutable after submit).
	Spec Spec

	dir string
	lc  *Lifecycle
	fs  vfs.FS // the registry's filesystem seam

	// fileMu is held by the one writer of the campaign's journal: its
	// runner, for the whole run, or a caller appending outside a run. So a
	// resume records Running, and its run opens the journal, only after a
	// pausing runner's last record.
	fileMu sync.Mutex

	mu        sync.Mutex
	cancel    context.CancelFunc // non-nil while a runner owns the campaign
	intent    State              // StatePaused or StateCanceled when an interrupt was requested
	eng       *engine.Engine     // live engine while running
	summary   *summary           // the completed campaign's outcome
	canonical string
	settledS  float64 // spend settled against the tenant ledger (terminal states)
}

func (c *Campaign) journalPath() string { return filepath.Join(c.dir, "journal.wal") }

// State returns the campaign's current lifecycle state.
func (c *Campaign) State() State { return c.lc.State() }

// record is one owner record of a campaign's journal. Submit writes the
// spec with the Pending state, the first run the spec with its warm keys
// and fingerprint, each recorded transition its state, and completion the
// result with the Completed state. On restart the last of each decides.
type record struct {
	Spec   *Spec            `json:"spec,omitempty"`
	State  *persistedState  `json:"state,omitempty"`
	Result *persistedResult `json:"result,omitempty"`
}

// persistedState is a state record: the lifecycle position, its history
// and the settled tenant spend.
type persistedState struct {
	State State `json:"state"`
	// SettledS is the virtual spend settled against the tenant ledger when
	// the campaign reached a terminal state (capped at the reservation).
	SettledS    float64      `json:"settled_s,omitempty"`
	Transitions []Transition `json:"transitions"`
}

// persistedResult is a result record: the canonical string the resume
// acceptance criteria compare byte-for-byte, and the summary Status serves.
// A record written before the summary, like the result.json the upgrade
// reads, carries the structured result under "result" instead.
type persistedResult struct {
	Canonical string        `json:"canonical"`
	Summary   *summary      `json:"summary,omitempty"`
	Legacy    *legacyResult `json:"result,omitempty"`
}

// summary is what Status serves of a completed campaign's outcome, under
// Status's JSON names.
type summary struct {
	Found          bool    `json:"found"`
	BestKey        string  `json:"best_key,omitempty"`
	BestMS         float64 `json:"best_ms,omitempty"`
	SpentS         float64 `json:"spent_s"`
	Evals          int     `json:"evals"`
	Replayed       int     `json:"replayed"`
	StoreHits      int     `json:"store_hits,omitempty"`
	StoreMisses    int     `json:"store_misses,omitempty"`
	WarmStartSeeds int     `json:"warm_start_seeds,omitempty"`
}

// summarize condenses a campaign's outcome, final or live, to its summary.
func summarize(best space.Setting, bestMS float64, found bool, st engine.Stats, replayed int) summary {
	s := summary{Found: found, SpentS: st.SpentS, Evals: st.Evaluations, Replayed: replayed,
		StoreHits: st.StoreHits, StoreMisses: st.StoreMisses, WarmStartSeeds: st.WarmStartSeeds}
	if found {
		s.BestKey, s.BestMS = best.Key(), bestMS
	}
	return s
}

// legacyResult is a structured harness.CampaignResult without its
// Trajectory, which decoding therefore skips without building it.
type legacyResult struct {
	Best     space.Setting
	BestMS   float64
	Found    bool
	Stats    engine.Stats
	Replayed int
}

// current returns the record in the form written today: a legacy record's
// structured result condensed to its summary.
func (r *persistedResult) current() *persistedResult {
	if r.Summary != nil || r.Legacy == nil {
		return r
	}
	l := r.Legacy
	s := summarize(l.Best, l.BestMS, l.Found, l.Stats, l.Replayed)
	return &persistedResult{Canonical: r.Canonical, Summary: &s}
}

// stateRecord renders the lifecycle as it stands, with the settled spend.
func (c *Campaign) stateRecord() *persistedState {
	c.mu.Lock()
	settled := c.settledS
	c.mu.Unlock()
	return &persistedState{State: c.lc.State(), SettledS: settled, Transitions: c.lc.History()}
}

// persist appends rec to the campaign's journal: through jr when the run
// holds it open, and otherwise through journal.OpenFS, which first
// truncates a torn tail, and a Close that syncs. The caller holds fileMu.
// It is best effort: the in-memory state stands, and a restart that finds
// an older record resumes the campaign to the same outcome.
func (c *Campaign) persist(jr *journal.Journal, rec record) {
	if jr != nil {
		_ = jr.AppendOwner(rec) // the run's Close syncs it
		return
	}
	if jr, err := journal.OpenFS(c.fs, c.journalPath(), ""); err == nil {
		_ = jr.AppendOwner(rec)
		_ = jr.Close()
	}
}

// read folds the owner records of the campaign's journal into one: the
// last spec, state and result they hold. A missing journal holds none. It
// reads the file into buf and returns the buffer for the next read; nothing
// it returns points into the buffer. A record in json.Marshal's image takes
// decodeRecord's fast path, and any other goes to json.Unmarshal, whose
// verdict decides.
func (c *Campaign) read(buf []byte) (record, []byte, error) {
	recs, buf, err := journal.Scan(c.fs, c.journalPath(), buf)
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	var last record
	for _, raw := range recs {
		rec, ok := decodeRecord(raw)
		if !ok {
			if err := json.Unmarshal(raw, &rec); err != nil {
				return last, buf, fmt.Errorf("campaign: unreadable record: %w", err)
			}
		}
		if rec.Result != nil {
			rec.Result = rec.Result.current()
		}
		last = record{Spec: cmp.Or(rec.Spec, last.Spec), State: cmp.Or(rec.State, last.State), Result: cmp.Or(rec.Result, last.Result)}
	}
	return last, buf, err
}

// config maps the spec onto the harness campaign configuration. wrap is the
// fairness gate.
func (c *Campaign) config(wrap func(sim.Objective) sim.Objective) harness.CampaignConfig {
	return harness.CampaignConfig{
		Method:      c.Spec.Method,
		BudgetS:     c.Spec.BudgetS,
		Seed:        c.Spec.Seed,
		JournalPath: c.journalPath(),
		FS:          c.fs,
		Wrap:        wrap,
	}
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
	eng, sum, canonical := c.eng, c.summary, c.canonical
	c.mu.Unlock()
	if sum == nil && eng != nil {
		set, ms, ok := eng.Best()
		live := summarize(set, ms, ok, eng.Stats(), eng.Replayed())
		sum = &live
	}
	if sum != nil {
		st.Found, st.BestKey, st.BestMS = sum.Found, sum.BestKey, sum.BestMS
		st.SpentS, st.Evals, st.Replayed = sum.SpentS, sum.Evals, sum.Replayed
		st.StoreHits, st.StoreMisses, st.WarmStartSeeds = sum.StoreHits, sum.StoreMisses, sum.WarmStartSeeds
	}
	st.Canonical = canonical
	return st
}
