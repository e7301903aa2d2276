// Lives in package engine_test so the permanent fault below comes from the
// real fault injector.
package engine_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// scriptObj fails each key in errs with its error on every call and
// measures every other key as TBx + TBy/100.
type scriptObj struct {
	sp   *space.Space
	errs map[string]error
}

func (o *scriptObj) Space() *space.Space { return o.sp }

func (o *scriptObj) Measure(s space.Setting) (float64, error) {
	if err := o.errs[s.Key()]; err != nil {
		return 0, err
	}
	return float64(s[space.TBX]) + float64(s[space.TBY])/100, nil
}

// callCounter counts the calls that reach the objective chain below the
// engine, per key. It unwraps, so a resumed engine still finds the fault
// injector's AttemptRestorer.
type callCounter struct {
	sim.Objective
	mu    sync.Mutex
	calls map[string]int
}

func (c *callCounter) Measure(s space.Setting) (float64, error) {
	c.mu.Lock()
	c.calls[s.Key()]++
	c.mu.Unlock()
	return c.Objective.Measure(s)
}

func (c *callCounter) Unwrap() sim.Objective { return c.Objective }

func (c *callCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

// TestJournalConstraintRejectionsAreNotJournaled measures six outcomes
// through a journaled engine: a success, a space.ErrInvalid and a
// kernel.ErrResource rejection, a transient exhaustion whose error wraps
// space.ErrInvalid, a plain permanent error and an injected permanent
// fault. Only the two rejections get no record. Resuming re-checks them
// live, once each, and replays every record; a journal that still holds
// rejection records, as older versions wrote them, replays them all.
func TestJournalConstraintRejectionsAreNotJournaled(t *testing.T) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{Seed: 4, PermanentRate: 0.3}

	// Pick five keys the injector passes through and one it always fails.
	probe := faults.New(&scriptObj{sp: sp}, cfg)
	var clean []space.Setting
	var broken space.Setting
	for tbx := 1; len(clean) < 5 || broken == nil; tbx++ {
		s := sp.Default()
		s[space.TBX], s[space.TBY] = tbx, 2
		var fe *faults.Error
		if _, err := probe.Measure(s); errors.As(err, &fe) && fe.Kind == faults.KindPermanent {
			if broken == nil {
				broken = s
			}
		} else if len(clean) < 5 {
			clean = append(clean, s)
		}
	}
	ok, invalid, resource, flaky, plain := clean[0], clean[1], clean[2], clean[3], clean[4]
	invalidErr := fmt.Errorf("%w: tile exceeds the grid", space.ErrInvalid)
	resourceErr := fmt.Errorf("%w: registers exceed the file", kernel.ErrResource)
	errs := map[string]error{
		invalid.Key():  invalidErr,
		resource.Key(): resourceErr,
		flaky.Key():    engine.Transient(fmt.Errorf("%w: flaky check", space.ErrInvalid)),
		plain.Key():    errors.New("compile failed"),
	}
	rejected := map[string]bool{invalid.Key(): true, resource.Key(): true}

	newEngine := func(j *journal.Journal) (*engine.Engine, *callCounter) {
		c := &callCounter{Objective: faults.New(&scriptObj{sp: sp, errs: errs}, cfg), calls: map[string]int{}}
		return engine.New(c, engine.WithJournal(j), engine.WithQuarantine(2), engine.WithSeed(3),
			engine.WithRetry(engine.RetryPolicy{MaxAttempts: 2, BackoffS: 0.25, Multiplier: 2, Jitter: 0.5})), c
	}
	// Three passes: the flaky key's second episode replays after its first
	// in per-key FIFO order and quarantines it, and the third pass is
	// refused by quarantine. Every other key is cached after one episode.
	var in []space.Setting
	for pass := 0; pass < 3; pass++ {
		in = append(in, ok, invalid, resource, flaky, plain, broken)
	}
	run := func(e *engine.Engine) string {
		fp := fingerprint(e, in)
		set, ms, _ := e.Best()
		return fmt.Sprintf("%sbest %s %v\n", fp, set.Key(), ms)
	}

	path := filepath.Join(t.TempDir(), "rejections.wal")
	j, err := journal.Create(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	j.OnAppend = func(n int) { records = n }
	eng, _ := newEngine(j)
	want := run(eng)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Invalid != 4 || st.Transient != 4 || len(eng.Quarantined()) != 1 {
		t.Fatalf("the six outcomes did not happen as scripted:\n%s", want)
	}
	if records != 5 { // ok, flaky twice, plain, broken
		t.Fatalf("journaled %d records, want 5", records)
	}

	reopen := func(path string) *journal.Journal {
		t.Helper()
		j, err := journal.Open(path, "fp")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		return j
	}
	j2 := reopen(path)
	recovered := j2.Recovered()
	for _, r := range recovered {
		if rejected[r.Key] {
			t.Fatalf("rejection of %s was journaled: %+v", r.Key, r)
		}
	}
	eng2, calls := newEngine(j2)
	if got := run(eng2); got != want {
		t.Fatalf("resume diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if eng2.Replayed() != records || eng2.ReplayPending() != 0 {
		t.Fatalf("Replayed = %d, pending %d; want %d, 0", eng2.Replayed(), eng2.ReplayPending(), records)
	}
	for _, s := range []space.Setting{ok, invalid, resource, flaky, plain, broken} {
		wantCalls := 0
		if rejected[s.Key()] {
			wantCalls = 1 // re-checked live, then cached
		}
		if n := calls.calls[s.Key()]; n != wantCalls {
			t.Errorf("resume called the objective %d times for %s, want %d", n, s.Key(), wantCalls)
		}
	}

	// The same journal with the rejection records an older version wrote
	// after the success: they replay as permanent failures, and nothing
	// reaches the objective.
	legacy := filepath.Join(t.TempDir(), "legacy.wal")
	lj, err := journal.Create(legacy, "fp")
	if err != nil {
		t.Fatal(err)
	}
	checkS := engine.DefaultCostModel().CheckS
	eps := append([]journal.Episode{recovered[0],
		{Key: invalid.Key(), Class: journal.ClassPermanent, Err: invalidErr.Error(), Attempts: 1, Calls: 1, CostS: checkS},
		{Key: resource.Key(), Class: journal.ClassPermanent, Err: resourceErr.Error(), Attempts: 1, Calls: 1, CostS: checkS},
	}, recovered[1:]...)
	for _, ep := range eps {
		if err := lj.Append(ep); err != nil {
			t.Fatal(err)
		}
	}
	if err := lj.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, calls3 := newEngine(reopen(legacy))
	if got := run(eng3); got != want {
		t.Fatalf("resume from a journal with rejection records diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if n := calls3.total(); n != 0 {
		t.Fatalf("resume from a journal with rejection records called the objective %d times, want 0", n)
	}
	if eng3.Replayed() != len(eps) {
		t.Fatalf("Replayed = %d, want %d", eng3.Replayed(), len(eps))
	}
}
