package engine

import (
	"errors"

	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/space"
)

// WithJournal attaches a campaign journal to the engine. Every finished
// measurement episode a restart could not recompute (success, store hit,
// budget refusal, any permanent failure other than a constraint rejection)
// is appended to the journal *before* its effects reach the engine's
// accounting state, so a killed process loses at most work the engine
// never accounted. Two kinds of episode get no record: a context-cancelled
// abort, which is the shutdown itself, and a constraint rejection (see
// rejection), which the resumed run re-checks live at the same point of
// its search. The engine fsyncs the journal every journalSyncEvery records
// and in SyncJournal, and holds back each episode's store publish
// until the sync that covers its record: whatever another party can
// observe is durable first, and a power cut loses at most
// journalSyncEvery-1 episodes, which resume re-measures with the same
// outcomes.
//
// When the journal was opened on an existing file, its recovered episodes
// become the engine's replay set: the first measurement request for each
// journaled key is served from the journal — through the normal accounting
// path, so cost, stats, trajectory and cache evolve exactly as in the
// original run — instead of reaching the objective. Replay is per-key
// FIFO, so duplicate episodes (a stacked engine's budget refusal, later
// measured) re-play in their original order; once a key's queue drains,
// further requests measure live. Resume therefore requires the campaign
// itself to be deterministic: the resumed run re-executes the same search
// and asks for the same keys, and the journal answers for the prefix
// already paid for (DESIGN.md §6).
func WithJournal(j *journal.Journal) Option {
	return func(e *Engine) { e.jr = j }
}

// initReplay turns the journal's recovered episodes into per-key FIFO
// replay queues. Called once from New after options are applied.
func (e *Engine) initReplay() {
	rec := e.jr.Recovered()
	if len(rec) == 0 {
		return
	}
	e.replay = make(map[string][]journal.Episode, len(rec))
	for _, r := range rec {
		e.replay[r.Key] = append(e.replay[r.Key], r)
	}
}

// replayPop serves the next journaled episode for key, if any.
func (e *Engine) replayPop(key string) (episode, bool) {
	if e.replay == nil {
		return episode{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.replay[key]
	if len(q) == 0 {
		return episode{}, false
	}
	r := q[0]
	if len(q) == 1 {
		delete(e.replay, key)
	} else {
		e.replay[key] = q[1:]
	}
	e.replayed++
	return episodeFromRecord(r), true
}

// Replayed returns how many measurement episodes were served from the
// journal instead of the objective.
func (e *Engine) Replayed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replayed
}

// journalSyncEvery is how many journaled episodes share one fsync. It
// counts records, not time, so the filesystem operations a run issues stay
// a pure function of its accounting order.
const journalSyncEvery = 32

// SyncJournal makes every journaled episode durable and then publishes the
// store results those records cover. Callers sync before anything outside
// the engine can observe the run: a returned result, or a paused or
// terminal state. It returns the journal's sticky failure, if any: once an
// append or sync fails, the journal refuses every later one, so the engine
// refuses further measurements rather than silently running an unjournaled
// (unresumable) campaign. Unjournaled engines return nil.
func (e *Engine) SyncJournal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syncJournalLocked()
}

// syncJournalLocked syncs the journal and releases the queued store
// publishes. A failed sync drops the queue: the store is a cache, and the
// campaign fails on the error. Callers hold e.mu.
func (e *Engine) syncJournalLocked() error {
	if e.jr == nil {
		return nil
	}
	if err := e.jr.Sync(); err != nil {
		e.queued = nil
		return err
	}
	e.unsynced = 0
	for _, p := range e.queued {
		e.storePutLocked(p.key, p.ms)
	}
	e.queued = e.queued[:0]
	return nil
}

// episodeFromRecord reconstructs the in-memory episode a journal record was
// written from. The error is rebuilt by class — Classify drives every
// accounting decision, so class fidelity (plus the message) is all replay
// needs. Fields that older versions wrote for retries and repeats are
// ignored (DESIGN.md §6).
func episodeFromRecord(r journal.Episode) episode {
	ep := episode{replayed: true}
	switch r.Class {
	case journal.ClassOK, journal.ClassStore:
		ep.ms, ep.fromStore = r.MS, r.Class == journal.ClassStore
	case journal.ClassBudget:
		ep.err = ErrBudget
	default:
		ep.err = errors.New(r.Err)
	}
	return ep
}

// recordFromEpisode converts one finished episode into its durable record.
// costS is the total virtual cost the episode is about to be charged.
func recordFromEpisode(key string, ep episode, costS float64) journal.Episode {
	r := journal.Episode{Key: key, CostS: costS}
	switch {
	case ep.fromStore:
		// A store hit is durable as its own class so a resumed run replays
		// the hit instead of re-probing a store that may have grown since —
		// resume must not depend on store content.
		r.Class, r.MS = journal.ClassStore, ep.ms
	case ep.err == nil:
		r.Class, r.MS = journal.ClassOK, ep.ms
	case Classify(ep.err) == ClassBudget:
		r.Class, r.Err = journal.ClassBudget, ep.err.Error()
	default:
		r.Class, r.Err = journal.ClassPermanent, ep.err.Error()
	}
	return r
}

// journalEpisodeLocked write-ahead logs one live finished episode, unless
// it is a cancelled abort or a constraint rejection: the record is written
// before accountEpisode mutates any state. A journal write failure is
// sticky in the journal — the engine fails fast rather than silently
// continuing a campaign whose journal no longer matches its state. Callers
// hold e.mu; a non-nil error means the caller must abort accounting.
func (e *Engine) journalEpisodeLocked(key string, ep episode) error {
	if e.jr == nil || ep.replayed {
		return nil
	}
	if ep.err != nil {
		switch Classify(ep.err) {
		case ClassCanceled:
			// A cancelled episode is the shutdown itself: it charges nothing,
			// mutates nothing durable, and the resumed run re-measures the key.
			return nil
		case ClassPermanent:
			if rejection(ep.err) {
				return nil
			}
		}
	}
	if err := e.jr.Append(recordFromEpisode(key, ep, episodeCostS(ep))); err != nil {
		return err
	}
	e.unsynced++
	return nil
}

// rejection reports whether a permanent episode error is a constraint
// rejection (space.ErrInvalid or kernel.ErrResource): a check that failed
// before any code was generated. It is a pure function of (space, setting,
// arch) that the engine caches, so a resumed run re-checks it at the same
// point of its search and charges the same CheckS: a record would buy
// nothing (DESIGN.md §6 has the argument). Every other permanent error
// keeps its record, since on a real testbed it may follow a paid compile.
func rejection(err error) bool {
	return errors.Is(err, space.ErrInvalid) || errors.Is(err, kernel.ErrResource)
}

// maybeSyncJournalLocked closes a batch once journalSyncEvery records are
// unsynced. A sync error stays sticky for the next measurement. Callers
// hold e.mu.
func (e *Engine) maybeSyncJournalLocked() {
	if e.unsynced >= journalSyncEvery {
		_ = e.syncJournalLocked() // sticky: the next measurement and SyncJournal report it
	}
}
