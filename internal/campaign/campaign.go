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

// Campaign is one tuning campaign owned by the registry: a durable spec, its
// lifecycle, one journal file holding both, and (while running) a live
// engine for progress polling.
type Campaign struct {
	// ID is the registry-assigned identifier, also the directory name.
	ID string
	// Spec is the durable description (Spec.Fingerprint is filled by the
	// first run; everything else is immutable after submit).
	Spec Spec

	dir string
	fs  vfs.FS // the registry's filesystem seam

	// fileMu is held by the one writer of the campaign's journal: its
	// runner, for the whole run, or a caller appending outside a run. So a
	// resume records Running, and its run opens the journal, only after a
	// pausing runner's last record.
	fileMu sync.Mutex

	// mu guards the lifecycle together with runner ownership, so a claim,
	// an interrupt and a runner's release each decide in one section
	// (DESIGN.md §10). A campaign a runner owns is Running.
	mu        sync.Mutex
	state     State
	hist      []Transition       // every stamped edge, the first into Pending
	cancel    context.CancelFunc // non-nil while a runner owns the campaign
	intent    State              // StatePaused or StateCanceled once an interrupt is requested of the owning runner
	eng       *engine.Engine     // live engine while running
	summary   summary            // the last run's engine summary, or an earlier one showing more spend
	canonical string             // the completed campaign's
}

func (c *Campaign) journalPath() string { return filepath.Join(c.dir, "journal.wal") }

// State returns the campaign's current lifecycle state.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// record is one owner record of a campaign's journal. Submit writes the
// spec with the Pending state, the first run the spec with its warm keys
// and fingerprint, each recorded transition its state, and every run's end
// its outcome's state with the result: the summary, and the canonical for
// Completed. On restart the last of each decides.
type record struct {
	Spec   *Spec            `json:"spec,omitempty"`
	State  *persistedState  `json:"state,omitempty"`
	Result *persistedResult `json:"result,omitempty"`
}

// persistedState is a state record: the lifecycle position and its
// history. Decoding ignores the settled_s of older records.
type persistedState struct {
	State       State        `json:"state"`
	Transitions []Transition `json:"transitions"`
}

// persistedResult is a result record: the summary Status serves and, for a
// completed campaign, the canonical string the resume acceptance criteria
// compare byte-for-byte. A record written before the summary, like the
// result.json the upgrade reads, carries the structured result under
// "result" instead.
type persistedResult struct {
	Canonical string        `json:"canonical,omitempty"`
	Summary   *summary      `json:"summary,omitempty"`
	Legacy    *legacyResult `json:"result,omitempty"`
}

// summary is what Status serves of a run's outcome: live engine progress
// while a run measures, otherwise the last run's, final once the campaign
// is terminal, whichever the state.
type summary struct {
	// SpentS and Evals are the virtual seconds spent and the successful
	// measurements. Replayed counts journal-served episodes.
	SpentS   float64 `json:"spent_s"`
	Evals    int     `json:"evals"`
	Replayed int     `json:"replayed"`

	// StoreHits/StoreMisses count cross-campaign result-store traffic;
	// WarmStartSeeds counts prior bests injected into this run's search.
	// All zero when the registry runs without a store.
	StoreHits      int `json:"store_hits,omitempty"`
	StoreMisses    int `json:"store_misses,omitempty"`
	WarmStartSeeds int `json:"warm_start_seeds,omitempty"`

	Found   bool    `json:"found"`
	BestKey string  `json:"best_key,omitempty"`
	BestMS  float64 `json:"best_ms,omitempty"`
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

// engineSummary condenses what eng has measured so far.
func engineSummary(eng *engine.Engine) *summary {
	set, ms, ok := eng.Best()
	s := summarize(set, ms, ok, eng.Stats(), eng.Replayed())
	return &s
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

// stateRecordLocked renders the lifecycle as it stands. The caller holds
// c.mu.
func (c *Campaign) stateRecordLocked() *persistedState {
	return &persistedState{State: c.state, Transitions: append([]Transition(nil), c.hist...)}
}

// persist appends rec to the campaign's journal: through jr, the run's
// own, unless there is none or it has failed, and otherwise through
// journal.OpenFS, which first truncates a torn tail, and a Close that
// syncs. The caller holds fileMu. It is best effort: the in-memory state
// stands, and a restart that finds an older record resumes the campaign to
// the same outcome.
func (c *Campaign) persist(jr *journal.Journal, rec record) {
	if jr != nil && jr.AppendOwner(rec) == nil {
		return // the run's Close syncs it
	}
	if jr, err := journal.OpenFS(c.fs, c.journalPath(), ""); err == nil {
		_ = jr.AppendOwner(rec)
		_ = jr.Close()
	}
}

// read folds the owner records of the campaign's journal into one: the
// last spec, state and result they hold. A missing journal holds none. It
// reads the file into buf and returns the buffer for the next read; nothing
// it returns points into the buffer, since json.Unmarshal copies out every
// value it decodes.
func (c *Campaign) read(buf []byte) (record, []byte, error) {
	recs, buf, err := journal.Scan(c.fs, c.journalPath(), buf)
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	var last record
	for _, raw := range recs {
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return last, buf, fmt.Errorf("campaign: unreadable record: %w", err)
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
// lifecycle position, live progress while running, what the last run
// measured otherwise, and the canonical result once completed.
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

	summary

	Canonical string       `json:"canonical,omitempty"`
	History   []Transition `json:"history"`
}

// Status snapshots the campaign, reading state, history and outcome in one
// section of c.mu: a poll never pairs one moment's state with another's
// history. A run's end swaps its engine for its summary in one section,
// so within a run no poll's spend or evaluations fall.
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
	}
	c.mu.Lock()
	st.State, st.History, st.Canonical = c.state, append([]Transition(nil), c.hist...), c.canonical
	if n := len(c.hist); n > 0 {
		st.Reason = c.hist[n-1].Reason
	}
	eng := c.eng
	st.summary = c.summary
	c.mu.Unlock()
	if eng != nil {
		st.summary = *engineSummary(eng)
	}
	return st
}
