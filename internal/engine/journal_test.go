package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/journal"
	"repro/internal/space"
)

func journalAt(t *testing.T, fp string) (*journal.Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.wal")
	j, err := journal.Create(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

// runSequence measures a fixed mixed sequence — successes, an invalid
// setting, a repeated key — and returns the engine for inspection.
func runSequence(t *testing.T, eng *Engine, sp *space.Space) {
	t.Helper()
	seq := []space.Setting{
		variant(sp, 2, 4),
		variant(sp, 1, 8),
		variant(sp, 999, 0), // permanently invalid in fakeObj
		variant(sp, 2, 4),   // cache hit
		variant(sp, 4, 2),
	}
	for _, s := range seq {
		eng.Measure(s) //nolint:errcheck — invalid settings error by design
	}
}

// snapshot is the canonical engine outcome replay must reproduce exactly.
type snapshot struct {
	stats Stats
	traj  []Point
	quar  []string
	best  string
	ms    float64
}

func snap(e *Engine) snapshot {
	s := snapshot{stats: e.Stats(), traj: e.Trajectory(), quar: e.Quarantined()}
	if set, ms, ok := e.Best(); ok {
		s.best, s.ms = set.Key(), ms
	}
	return s
}

func TestJournalReplayReproducesRunWithoutObjectiveCalls(t *testing.T) {
	j, path := journalAt(t, "fp")
	obj := newFake(t)
	sp := obj.Space()
	eng := New(obj, WithJournal(j))
	runSequence(t, eng, sp)
	want := snap(eng)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	obj2 := newFake(t)
	eng2 := New(obj2, WithJournal(j2))
	if eng2.ReplayPending() != 4 { // 5 measurements, one a cache hit
		t.Fatalf("ReplayPending = %d, want 4", eng2.ReplayPending())
	}
	runSequence(t, eng2, sp)
	if got := snap(eng2); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", got, want)
	}
	if eng2.Replayed() != 4 {
		t.Fatalf("Replayed = %d, want 4", eng2.Replayed())
	}
	if eng2.ReplayPending() != 0 {
		t.Fatalf("ReplayPending after replay = %d, want 0", eng2.ReplayPending())
	}
	// The whole point: the resumed run re-measured nothing.
	for _, s := range []space.Setting{variant(sp, 2, 4), variant(sp, 1, 8), variant(sp, 999, 0), variant(sp, 4, 2)} {
		if n := obj2.callCount(s); n != 0 {
			t.Errorf("objective re-measured %v %d times during replay", s, n)
		}
	}
	// After the replay set drains, live measurement continues seamlessly.
	extra := variant(sp, 8, 16)
	if _, err := eng2.Measure(extra); err != nil {
		t.Fatal(err)
	}
	if n := obj2.callCount(extra); n != 1 {
		t.Fatalf("post-replay measurement hit the objective %d times, want 1", n)
	}
}

func TestJournalReplayTransientExhaustionAndQuarantine(t *testing.T) {
	j, path := journalAt(t, "fp")
	inner := newFlaky(t, 1000, Transient(errors.New("always flaky")))
	sp := inner.Space()
	s := variant(sp, 3, 3)
	eng := New(inner, WithJournal(j),
		WithRetry(RetryPolicy{MaxAttempts: 2, BackoffS: 0.25, Multiplier: 2, Jitter: 0.5}),
		WithQuarantine(2), WithSeed(11))
	for i := 0; i < 3; i++ {
		eng.Measure(s) //nolint:errcheck — failures are the point
	}
	want := snap(eng)
	if len(want.quar) != 1 {
		t.Fatalf("setting not quarantined in original run: %+v", want)
	}
	j.Close()

	j2, err := journal.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Two journaled episodes (the third request was refused by quarantine,
	// which is not an episode).
	if eng2 := New(newFlaky(t, 1000, Transient(errors.New("always flaky"))), WithJournal(j2),
		WithRetry(RetryPolicy{MaxAttempts: 2, BackoffS: 0.25, Multiplier: 2, Jitter: 0.5}),
		WithQuarantine(2), WithSeed(11)); true {
		for i := 0; i < 3; i++ {
			eng2.Measure(s) //nolint:errcheck
		}
		if got := snap(eng2); !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestJournalReplayBudgetClass(t *testing.T) {
	j, path := journalAt(t, "fp")
	obj := newFake(t)
	sp := obj.Space()
	// Budget admits the first measurement, refuses at the stacked layer for
	// the second via an inner engine returning ErrBudget.
	inner := New(obj, WithCost(CostModel{CompileS: 5, Reps: 1}), WithBudget(5))
	eng := New(inner, WithJournal(j), WithCost(CostModel{CompileS: 1, Reps: 1, CheckS: 0.5}))
	eng.Measure(variant(sp, 2, 4)) //nolint:errcheck
	eng.Measure(variant(sp, 4, 2)) //nolint:errcheck — inner budget refuses
	want := snap(eng)
	if want.stats.Invalid != 1 {
		t.Fatalf("expected one budget-classed refusal, stats %+v", want.stats)
	}
	j.Close()

	j2, err := journal.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	obj2 := newFake(t)
	inner2 := New(obj2, WithCost(CostModel{CompileS: 5, Reps: 1}), WithBudget(5))
	eng2 := New(inner2, WithJournal(j2), WithCost(CostModel{CompileS: 1, Reps: 1, CheckS: 0.5}))
	eng2.Measure(variant(sp, 2, 4)) //nolint:errcheck
	eng2.Measure(variant(sp, 4, 2)) //nolint:errcheck
	if got := snap(eng2); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", got, want)
	}
	if obj2.callCount(variant(sp, 2, 4)) != 0 {
		t.Fatal("replay re-measured a journaled success")
	}
}

func TestJournalCanceledEpisodesAreNotJournaled(t *testing.T) {
	j, path := journalAt(t, "fp")
	obj := newFake(t)
	sp := obj.Space()
	eng := New(obj, WithJournal(j))
	if _, err := eng.Measure(variant(sp, 2, 4)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MeasureCtx(ctx, variant(sp, 4, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	j.Close()
	j2, err := journal.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := len(j2.Recovered()); n != 1 {
		t.Fatalf("journal holds %d episodes, want 1 (cancelled episode must not be recorded)", n)
	}
}

// TestJournalReplaysRecordWithRetiredTimeoutsField: episode records written
// while the engine had a per-measurement deadline carry a "timeouts" count.
// A journal holding one still opens, and the episode replays through the
// normal accounting path without reaching the objective.
func TestJournalReplaysRecordWithRetiredTimeoutsField(t *testing.T) {
	obj := newFake(t)
	sp := obj.Space()
	s := variant(sp, 2, 4) // fakeObj time 2.04 ms
	const ms, backoffS = 2.04, 0.5
	cost := DefaultCostModel()
	costS := backoffS + (cost.CompileS + float64(cost.Reps)*ms/1000) // accountEpisode's order
	var buf bytes.Buffer
	for _, fr := range []any{
		map[string]any{"t": "hdr", "hdr": journal.Header{Magic: journal.Magic, Version: journal.Version, Fingerprint: "fp"}},
		map[string]any{"t": "ep", "ep": map[string]any{
			"key": s.Key(), "class": journal.ClassOK, "ms": ms, "ms_sum": ms,
			"attempts": 2, "calls": 2, "transient": 1, "timeouts": 1, "backoff_s": backoffS, "cost_s": costS,
		}},
	} {
		if err := frame.Write(&buf, fr); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "engine.wal")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	eng := New(obj, WithJournal(j))
	if n := eng.ReplayPending(); n != 1 {
		t.Fatalf("ReplayPending = %d, want 1", n)
	}
	if got, err := eng.Measure(s); err != nil || got != ms {
		t.Fatalf("Measure = %v/%v, want %v replayed", got, err, ms)
	}
	if n := obj.callCount(s); n != 0 {
		t.Fatalf("replayed episode reached the objective %d times", n)
	}
	st := eng.Stats()
	if eng.Replayed() != 1 || st.Evaluations != 1 || st.Transient != 1 || st.Retries != 1 || st.SpentS != costS {
		t.Fatalf("replayed %d, stats %+v; want 1 replayed evaluation with 1 transient, 1 retry, SpentS %v",
			eng.Replayed(), st, costS)
	}
}

func TestJournalWriteFailureIsStickyAndFailsFast(t *testing.T) {
	j, _ := journalAt(t, "fp")
	obj := newFake(t)
	sp := obj.Space()
	eng := New(obj, WithJournal(j))
	if _, err := eng.Measure(variant(sp, 2, 4)); err != nil {
		t.Fatal(err)
	}
	// Close the journal underneath the engine: the next append fails, and
	// the engine must refuse the measurement rather than run unjournaled.
	j.Close()
	if _, err := eng.Measure(variant(sp, 4, 2)); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("err = %v, want journal.ErrClosed", err)
	}
	if err := eng.SyncJournal(); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("SyncJournal = %v, want the sticky journal.ErrClosed", err)
	}
	if _, err := eng.Measure(variant(sp, 8, 8)); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("second err = %v, want sticky journal.ErrClosed", err)
	}
	// Cached results stay readable: the journal already holds them.
	if ms, err := eng.Measure(variant(sp, 2, 4)); err != nil || ms == 0 {
		t.Fatalf("cached read after journal failure: %v, %v", ms, err)
	}
	stats := eng.Stats()
	if stats.Evaluations != 1 {
		t.Fatalf("unjournaled measurement leaked into accounting: %+v", stats)
	}
}

// TestEngineKillAtEveryRecordBoundary snapshots the journal file after every
// written record of a mixed run — each a legal SIGKILL point — and resumes
// each snapshot: every prefix must replay to a state consistent with the
// original run's history (and the full snapshot must reproduce it exactly).
func TestEngineKillAtEveryRecordBoundary(t *testing.T) {
	j, path := journalAt(t, "fp")
	var snaps [][]byte
	j.OnAppend = func(int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("snapshot: %v", err)
			return
		}
		snaps = append(snaps, data)
	}
	obj := newFake(t)
	sp := obj.Space()
	eng := New(obj, WithJournal(j))
	runSequence(t, eng, sp)
	want := snap(eng)
	j.Close()

	if len(snaps) == 0 {
		t.Fatal("no kill points captured")
	}
	for i, data := range snaps {
		p := filepath.Join(t.TempDir(), fmt.Sprintf("kill-%d.wal", i))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := journal.Open(p, "fp")
		if err != nil {
			t.Fatalf("kill point %d: %v", i, err)
		}
		obj2 := newFake(t)
		eng2 := New(obj2, WithJournal(j2))
		runSequence(t, eng2, sp)
		got := snap(eng2)
		j2.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kill point %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
