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
	"repro/internal/vfs"
)

func journalAt(t *testing.T, fp string) (*journal.Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.wal")
	j, err := journal.CreateFS(vfs.OS, path, fp)
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
	best  string
	ms    float64
}

func snap(e *Engine) snapshot {
	s := snapshot{stats: e.Stats(), traj: e.Trajectory()}
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

	j2, err := journal.OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	obj2 := newFake(t)
	eng2 := New(obj2, WithJournal(j2))
	if eng2.pendingReplays() != 4 { // 5 measurements, one a cache hit
		t.Fatalf("pendingReplays = %d, want 4", eng2.pendingReplays())
	}
	runSequence(t, eng2, sp)
	if got := snap(eng2); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", got, want)
	}
	if eng2.Replayed() != 4 {
		t.Fatalf("Replayed = %d, want 4", eng2.Replayed())
	}
	if eng2.pendingReplays() != 0 {
		t.Fatalf("pendingReplays after replay = %d, want 0", eng2.pendingReplays())
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

func TestJournalReplayBudgetClass(t *testing.T) {
	j, path := journalAt(t, "fp")
	obj := newFake(t)
	sp := obj.Space()
	// Budget admits the first measurement, refuses at the stacked layer for
	// the second via an inner engine returning ErrBudget: one measurement
	// costs more than CompileS.
	inner := New(obj, WithBudget(CompileS))
	eng := New(inner, WithJournal(j))
	eng.Measure(variant(sp, 2, 4)) //nolint:errcheck
	eng.Measure(variant(sp, 4, 2)) //nolint:errcheck — inner budget refuses
	want := snap(eng)
	if want.stats.Invalid != 1 {
		t.Fatalf("expected one budget-classed refusal, stats %+v", want.stats)
	}
	j.Close()

	j2, err := journal.OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	obj2 := newFake(t)
	inner2 := New(obj2, WithBudget(CompileS))
	eng2 := New(inner2, WithJournal(j2))
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
	j2, err := journal.OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := len(j2.Recovered()); n != 1 {
		t.Fatalf("journal holds %d episodes, want 1 (cancelled episode must not be recorded)", n)
	}
}

// TestJournalReplaysRecordWithRetiredTimeoutsField: episode records written
// while the engine had a per-measurement deadline, retries and repeats carry
// "timeouts", "attempts", "calls", "transient", "backoff_s" and "ms_sum". A
// journal holding one still opens, the episode replays through the normal
// accounting path without reaching the objective, and it is charged from
// "ms" alone: one evaluation at CompileS + Reps·ms/1000, whatever its
// recorded backoff, retries or summed repeats.
func TestJournalReplaysRecordWithRetiredTimeoutsField(t *testing.T) {
	obj := newFake(t)
	sp := obj.Space()
	s := variant(sp, 2, 4) // fakeObj time 2.04 ms
	const backoffS = 0.5
	ms := 2.04
	want := CompileS + Reps*ms/1000
	var buf bytes.Buffer
	for _, fr := range []any{
		map[string]any{"t": "hdr", "hdr": journal.Header{Magic: journal.Magic, Version: journal.Version, Fingerprint: "fp"}},
		map[string]any{"t": "ep", "ep": map[string]any{
			"key": s.Key(), "class": journal.ClassOK, "ms": ms, "ms_sum": 3 * ms,
			"attempts": 2, "calls": 2, "transient": 1, "timeouts": 1, "backoff_s": backoffS, "cost_s": backoffS + want,
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
	j, err := journal.OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	eng := New(obj, WithJournal(j))
	if n := eng.pendingReplays(); n != 1 {
		t.Fatalf("pendingReplays = %d, want 1", n)
	}
	if got, err := eng.Measure(s); err != nil || got != ms {
		t.Fatalf("Measure = %v/%v, want %v replayed", got, err, ms)
	}
	if n := obj.callCount(s); n != 0 {
		t.Fatalf("replayed episode reached the objective %d times", n)
	}
	st := eng.Stats()
	if eng.Replayed() != 1 || st.Evaluations != 1 || st.Invalid != 0 || st.SpentS != want {
		t.Fatalf("replayed %d, stats %+v; want 1 replayed evaluation charged SpentS %v",
			eng.Replayed(), st, want)
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

// frameCuts returns every prefix of the finished journal at path that ends
// at a frame boundary, the header's end first. The journal is append-only,
// so each is the file exactly as a kill right after that frame's write
// leaves it.
func frameCuts(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cuts [][]byte
	for off := 0; off < len(data); {
		_, next, err := frame.Next(data, off)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, data[:next])
		off = next
	}
	return cuts
}

// TestEngineKillAtEveryRecordBoundary cuts the journal of a mixed run at
// every frame boundary — each a legal SIGKILL point — and resumes from each
// cut: every prefix must replay to the original run's exact outcome.
func TestEngineKillAtEveryRecordBoundary(t *testing.T) {
	j, path := journalAt(t, "fp")
	obj := newFake(t)
	sp := obj.Space()
	eng := New(obj, WithJournal(j))
	runSequence(t, eng, sp)
	want := snap(eng)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	cuts := frameCuts(t, path)
	if len(cuts) != 5 { // the header and four records (one measurement is a cache hit)
		t.Fatalf("journal has %d frame boundaries, want 5", len(cuts))
	}
	for i, data := range cuts {
		p := filepath.Join(t.TempDir(), fmt.Sprintf("kill-%d.wal", i))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := journal.OpenFS(vfs.OS, p, "fp")
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
		if eng2.Replayed() != i {
			t.Fatalf("kill point %d replayed %d records, want %d", i, eng2.Replayed(), i)
		}
	}
}
