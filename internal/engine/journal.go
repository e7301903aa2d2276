package engine

import (
	"errors"

	"repro/internal/journal"
	"repro/internal/sim"
)

// WithJournal attaches a campaign journal to the engine. Every finished
// measurement episode (success, permanent failure, transient exhaustion,
// budget refusal — everything except a context-cancelled abort, which is
// the shutdown itself) is appended to the journal *before* its effects
// reach the engine's accounting state, so a killed process loses at most
// work the engine never accounted. The engine fsyncs the journal every
// journalSyncEvery records and in SyncJournal, and holds back each live
// episode's store publish until the sync that covers its record: whatever
// another party can observe is durable first, and a power cut loses at
// most journalSyncEvery-1 episodes, which resume re-measures with the same
// outcomes.
//
// When the journal was opened on an existing file, its recovered episodes
// become the engine's replay set: the first measurement request for each
// journaled key is served from the journal — through the normal accounting
// path, so cost, stats, trajectory, cache, and quarantine evolve exactly as
// in the original run — instead of reaching the objective. Replay is
// per-key FIFO, so duplicate episodes (transient failures later retried)
// re-play in their original order; once a key's queue drains, further
// requests measure live. Resume therefore requires the campaign itself to
// be deterministic: the resumed run re-executes the same search and asks
// for the same keys, and the journal answers for the prefix already paid
// for (DESIGN.md §6).
func WithJournal(j *journal.Journal) Option {
	return func(e *Engine) { e.jr = j }
}

// WithRepeats makes every measurement attempt call the objective n times,
// scoring the setting by the median (noise-robust, the standard benchmark
// practice) while charging the virtual clock for every repeat. n <= 1 is a
// single call per attempt — the historical behaviour, bit-for-bit.
func WithRepeats(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.repeats = n
	}
}

// AttemptRestorer is implemented by stateful objectives (the fault
// injector) whose behaviour depends on how often each setting was measured.
// On resume the engine restores the per-key objective-call counts recorded
// in the journal, so a wrapped objective's per-attempt decisions continue
// exactly where the crashed run stopped.
type AttemptRestorer interface {
	RestoreAttempts(calls map[string]int)
}

// initReplay turns the journal's recovered episodes into per-key FIFO
// replay queues and restores attempt counters down the objective chain.
// Called once from New after options are applied.
func (e *Engine) initReplay() {
	rec := e.jr.Recovered()
	if len(rec) == 0 {
		return
	}
	e.replay = make(map[string][]journal.Episode, len(rec))
	calls := make(map[string]int, len(rec))
	for _, r := range rec {
		e.replay[r.Key] = append(e.replay[r.Key], r)
		calls[r.Key] += r.Calls
	}
	e.replayPending = len(rec)
	for obj := e.obj; obj != nil; {
		if ar, ok := obj.(AttemptRestorer); ok {
			ar.RestoreAttempts(calls)
			break
		}
		u, ok := obj.(interface{ Unwrap() sim.Objective })
		if !ok {
			break
		}
		obj = u.Unwrap()
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
	e.replayPending--
	e.replayed++
	return episodeFromRecord(r), true
}

// ReplayPending returns how many journaled episodes are still waiting to be
// replayed; a resumed campaign that re-executes deterministically drains
// this to zero before its first live measurement of a journaled key.
func (e *Engine) ReplayPending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replayPending
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
// terminal state. It returns the sticky journal error, if any: once an
// append or sync fails, the engine refuses further measurements rather than
// silently running an unjournaled (unresumable) campaign. Unjournaled
// engines return nil.
func (e *Engine) SyncJournal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syncJournalLocked()
}

// syncJournalLocked syncs the journal and releases the queued store
// publishes. A failed sync is sticky and drops the queue: the store is a
// cache, and the campaign fails on the error. Callers hold e.mu.
func (e *Engine) syncJournalLocked() error {
	if e.jr == nil {
		return nil
	}
	if e.journalErr == nil {
		if err := e.jr.Sync(); err != nil {
			e.journalErr = err
		}
	}
	if e.journalErr != nil {
		e.queued = nil
		return e.journalErr
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
// needs.
func episodeFromRecord(r journal.Episode) episode {
	ep := episode{
		attempts:  r.Attempts,
		calls:     r.Calls,
		transient: r.Transient,
		timeouts:  r.Timeouts,
		backoffS:  r.BackoffS,
		replayed:  true,
	}
	switch r.Class {
	case journal.ClassOK:
		ep.ms, ep.msSum = r.MS, r.MSSum
	case journal.ClassStore:
		ep.ms, ep.msSum = r.MS, r.MSSum
		ep.fromStore = true
	case journal.ClassBudget:
		ep.err = ErrBudget
	case journal.ClassTransient:
		ep.err = Transient(errors.New(r.Err))
	default:
		ep.err = errors.New(r.Err)
	}
	return ep
}

// recordFromEpisode converts one finished episode into its durable record.
// costS is the total virtual cost the episode is about to be charged.
func recordFromEpisode(key string, ep episode, costS float64) journal.Episode {
	r := journal.Episode{
		Key:       key,
		Attempts:  ep.attempts,
		Calls:     ep.calls,
		Transient: ep.transient,
		Timeouts:  ep.timeouts,
		BackoffS:  ep.backoffS,
		CostS:     costS,
	}
	if ep.err == nil {
		if ep.fromStore {
			// A store hit is durable as its own class so a resumed run
			// replays the hit instead of re-probing a store that may have
			// grown since — resume must not depend on store content.
			r.Class = journal.ClassStore
		} else {
			r.Class = journal.ClassOK
		}
		r.MS, r.MSSum = ep.ms, ep.msSum
		return r
	}
	r.Err = ep.err.Error()
	switch Classify(ep.err) {
	case ClassBudget:
		r.Class = journal.ClassBudget
	case ClassTransient:
		r.Class = journal.ClassTransient
	default:
		r.Class = journal.ClassPermanent
	}
	return r
}

// episodeCostS prices one finished episode exactly as accountEpisode will
// charge it, so the journal record carries the true cost.
func (e *Engine) episodeCostS(ep episode) float64 {
	if ep.fromStore {
		return 0 // the measurement was paid for by a previous campaign
	}
	if ep.err == nil {
		return ep.backoffS + e.cost.CompileS + float64(e.cost.Reps)*ep.msSum/1000
	}
	if Classify(ep.err) == ClassCanceled {
		return 0
	}
	return ep.backoffS + e.cost.CheckS
}

// journalEpisodeLocked write-ahead logs one live finished episode: the
// record is written before accountEpisode mutates any state. A journal
// write failure is sticky — the engine fails fast rather than silently
// continuing a campaign whose journal no longer matches its state. Callers
// hold e.mu; a non-nil error means the caller must abort accounting.
func (e *Engine) journalEpisodeLocked(key string, ep episode) error {
	if e.jr == nil || ep.replayed {
		return nil
	}
	if ep.err != nil && Classify(ep.err) == ClassCanceled {
		// A cancelled episode is the shutdown itself: it charges nothing,
		// mutates nothing durable, and the resumed run re-measures the key.
		return nil
	}
	if e.journalErr != nil {
		return e.journalErr
	}
	if err := e.jr.Append(recordFromEpisode(key, ep, e.episodeCostS(ep))); err != nil {
		e.journalErr = err
		return err
	}
	e.unsynced++
	return nil
}

// maybeSyncJournalLocked closes a batch once journalSyncEvery records are
// unsynced. A sync error stays sticky for the next measurement. Callers
// hold e.mu.
func (e *Engine) maybeSyncJournalLocked() {
	if e.unsynced >= journalSyncEvery {
		_ = e.syncJournalLocked() // sticky: the next measurement and SyncJournal report it
	}
}
