package engine_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
	"repro/internal/vfs"
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

// callCounter counts the calls that reach the objective below the engine,
// per key.
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

func (c *callCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

// TestJournalConstraintRejectionsAreNotJournaled measures four outcomes
// through a journaled engine: a success, a space.ErrInvalid and a
// kernel.ErrResource rejection, and a plain permanent error. Only the two
// rejections get no record. Resuming re-checks them live, once each, and
// replays every record; a journal that still holds rejection records, as
// older versions wrote them, replays them all.
func TestJournalConstraintRejectionsAreNotJournaled(t *testing.T) {
	sp, err := space.New(stencil.Helmholtz())
	if err != nil {
		t.Fatal(err)
	}
	var keys []space.Setting
	for tbx := 1; tbx <= 4; tbx++ {
		s := sp.Default()
		s[space.TBX], s[space.TBY] = tbx, 2
		keys = append(keys, s)
	}
	ok, invalid, resource, plain := keys[0], keys[1], keys[2], keys[3]
	invalidErr := fmt.Errorf("%w: tile exceeds the grid", space.ErrInvalid)
	resourceErr := fmt.Errorf("%w: registers exceed the file", kernel.ErrResource)
	errs := map[string]error{
		invalid.Key():  invalidErr,
		resource.Key(): resourceErr,
		plain.Key():    errors.New("compile failed"),
	}
	rejected := map[string]bool{invalid.Key(): true, resource.Key(): true}

	newEngine := func(j *journal.Journal) (*engine.Engine, *callCounter) {
		c := &callCounter{Objective: &scriptObj{sp: sp, errs: errs}, calls: map[string]int{}}
		return engine.New(c, engine.WithJournal(j)), c
	}
	// Two passes: every key is cached after its one episode, so the second
	// pass is all cache hits.
	var in []space.Setting
	for pass := 0; pass < 2; pass++ {
		in = append(in, keys...)
	}
	run := func(e *engine.Engine) string {
		fp := fingerprint(e, in)
		set, ms, _ := e.Best()
		return fmt.Sprintf("%sbest %s %v\n", fp, set.Key(), ms)
	}

	path := filepath.Join(t.TempDir(), "rejections.wal")
	j, err := journal.CreateFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := newEngine(j)
	want := run(eng)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if best, _, _ := eng.Best(); best.Key() != ok.Key() || eng.Stats().Evaluations != 1 || eng.Stats().Invalid != 3 {
		t.Fatalf("the four outcomes did not happen as scripted:\n%s", want)
	}
	reopen := func(path string) *journal.Journal {
		t.Helper()
		j, err := journal.OpenFS(vfs.OS, path, "fp")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		return j
	}
	j2 := reopen(path)
	recovered := j2.Recovered()
	records := len(recovered)
	if records != 2 { // ok, plain
		t.Fatalf("journaled %d records, want 2", records)
	}
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
	for _, s := range keys {
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
	lj, err := journal.CreateFS(vfs.OS, legacy, "fp")
	if err != nil {
		t.Fatal(err)
	}
	eps := append([]journal.Episode{recovered[0],
		{Key: invalid.Key(), Class: journal.ClassPermanent, Err: invalidErr.Error(), CostS: engine.CheckS},
		{Key: resource.Key(), Class: journal.ClassPermanent, Err: resourceErr.Error(), CostS: engine.CheckS},
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
