// Torture tests for the lock-free measure hot path (DESIGN.md §12): the
// striped cache, per-key singleflight and atomic hit counter must leave the
// determinism contract untouched. Duplicate-heavy inputs under fault
// injection must replay from the journal to the recorded run's exact
// outcome, and concurrent callers of one key must share one episode. Lives
// in package engine_test so it can drive the real engine through the real
// fault injector.
package engine_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

func tortureSpace(t testing.TB) (*space.Space, *sim.Simulator) {
	t.Helper()
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	return sp, sim.New(sp, gpu.A100())
}

// duplicateHeavyBatch samples n unique random settings and replicates each
// three times, shuffled, so roughly two thirds of the list are duplicate
// keys: most measurements are cache hits on a key measured (or failed)
// earlier in the same run.
func duplicateHeavyBatch(sp *space.Space, n int, seed int64) []space.Setting {
	rng := rand.New(rand.NewSource(seed))
	uniq := make([]space.Setting, 0, n)
	for i := 0; i < n; i++ {
		uniq = append(uniq, sp.Random(rng))
	}
	out := make([]space.Setting, 0, 3*n)
	for _, s := range uniq {
		out = append(out, s, s.Clone(), s.Clone())
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hostileTortureConfig mirrors the faults package's hostile testbed: every
// injected fault kind fires on a 3n-item list.
func hostileTortureConfig() faults.Config {
	return faults.Config{
		Seed:               11,
		TransientRate:      0.25,
		MaxTransientPerKey: 2,
		PermanentRate:      0.10,
		NoiseFrac:          0.05,
		NoiseAddMS:         0.01,
		SlowRate:           0.10,
		SlowDelay:          100 * time.Microsecond,
	}
}

// fingerprint measures in one setting at a time and serializes everything
// the determinism contract covers — per-item results, stats, trajectory,
// quarantine set — into one string, so runs compare byte-for-byte rather
// than field-by-field.
func fingerprint(eng *engine.Engine, in []space.Setting) string {
	var b strings.Builder
	for i, s := range in {
		ms, err := eng.Measure(s)
		errs := ""
		if err != nil {
			errs = err.Error()
		}
		fmt.Fprintf(&b, "res[%d] ms=%.9f err=%q\n", i, ms, errs)
	}
	fmt.Fprintf(&b, "stats %+v\n", eng.Stats())
	for i, p := range eng.Trajectory() {
		fmt.Fprintf(&b, "traj[%d] %+v\n", i, p)
	}
	for i, q := range eng.Quarantined() {
		fmt.Fprintf(&b, "quar[%d] %s\n", i, q)
	}
	return b.String()
}

// TestTortureJournalReplayMatrix records a faulty duplicate-heavy list into
// a write-ahead journal, then resumes from that journal. The resumed run
// must (a) replay every journaled episode without touching the objective's
// fault schedule anew and (b) land on the recorded run's exact fingerprint.
func TestTortureJournalReplayMatrix(t *testing.T) {
	sp, s := tortureSpace(t)
	in := duplicateHeavyBatch(sp, 30, 42)
	walPath := filepath.Join(t.TempDir(), "torture.wal")

	newEngine := func(j *journal.Journal) *engine.Engine {
		return engine.New(faults.New(s, hostileTortureConfig()),
			engine.WithSeed(7),
			engine.WithQuarantine(2),
			engine.WithJournal(j),
		)
	}
	// Record the reference run.
	j, err := journal.Create(walPath, "torture")
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprint(newEngine(j), in)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume from it.
	j2, err := journal.Open(walPath, "torture")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	eng := newEngine(j2)
	pending := eng.ReplayPending()
	if pending == 0 {
		t.Fatal("journal recovered no episodes")
	}
	if got := fingerprint(eng, in); got != ref {
		t.Fatalf("resumed fingerprint diverged:\n--- got ---\n%s\n--- want ---\n%s", got, ref)
	}
	if eng.Replayed() != pending {
		t.Fatalf("replayed %d of %d recovered episodes", eng.Replayed(), pending)
	}
	if eng.ReplayPending() != 0 {
		t.Fatalf("left %d episodes unreplayed", eng.ReplayPending())
	}
}

// countingObj is a minimal deterministic objective that counts Measure calls
// per key — the probe for singleflight exactness.
type countingObj struct {
	sp    *space.Space
	mu    sync.Mutex
	calls map[string]int
}

func newCountingObj(t testing.TB) *countingObj {
	t.Helper()
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	return &countingObj{sp: sp, calls: make(map[string]int)}
}

func (o *countingObj) Space() *space.Space { return o.sp }

func (o *countingObj) Measure(s space.Setting) (float64, error) {
	key := s.Key()
	o.mu.Lock()
	o.calls[key]++
	o.mu.Unlock()
	// Hold the measurement open long enough that every racing caller
	// arrives while the episode is still in flight.
	time.Sleep(200 * time.Microsecond)
	return 1 + float64(len(key)), nil
}

func (o *countingObj) count(key string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls[key]
}

// TestTortureSingleflightStress hammers one uncached key from 64 goroutines:
// exactly one objective episode may run, everyone must observe its result,
// and the hit counter must account for the other 63.
func TestTortureSingleflightStress(t *testing.T) {
	const goroutines = 64
	obj := newCountingObj(t)
	eng := engine.New(obj, engine.WithSeed(1))
	s := obj.sp.Random(rand.New(rand.NewSource(99)))
	key := s.Key()

	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	got := make([]float64, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			got[g], errs[g] = eng.Measure(s)
		}(g)
	}
	start.Done()
	wg.Wait()

	if n := obj.count(key); n != 1 {
		t.Fatalf("objective measured the key %d times, want exactly 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if errs[g] != nil || got[g] != got[0] {
			t.Fatalf("caller %d observed %v/%v, caller 0 observed %v/%v", g, got[g], errs[g], got[0], errs[0])
		}
	}
	st := eng.Stats()
	if st.Evaluations != 1 {
		t.Fatalf("Evaluations = %d, want 1", st.Evaluations)
	}
	if st.CacheHits != goroutines-1 {
		t.Fatalf("CacheHits = %d, want %d", st.CacheHits, goroutines-1)
	}
}

// TestTortureSingleflightManyKeys repeats the stress across 32 distinct
// uncached keys, every goroutine visiting every key in its own random order:
// evaluations must equal the number of unique keys, never more.
func TestTortureSingleflightManyKeys(t *testing.T) {
	const goroutines = 64
	obj := newCountingObj(t)
	eng := engine.New(obj, engine.WithSeed(1))

	rng := rand.New(rand.NewSource(7))
	seen := make(map[string]bool)
	var settings []space.Setting
	for len(settings) < 32 {
		s := obj.sp.Random(rng)
		if k := s.Key(); !seen[k] {
			seen[k] = true
			settings = append(settings, s)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + g)))
			for _, i := range r.Perm(len(settings)) {
				if _, err := eng.Measure(settings[i]); err != nil {
					t.Errorf("goroutine %d key %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for _, s := range settings {
		if n := obj.count(s.Key()); n != 1 {
			t.Fatalf("key %s measured %d times, want exactly 1", s.Key(), n)
		}
	}
	st := eng.Stats()
	if st.Evaluations != len(settings) {
		t.Fatalf("Evaluations = %d, want %d (one per unique key)", st.Evaluations, len(settings))
	}
	if want := goroutines*len(settings) - len(settings); st.CacheHits != want {
		t.Fatalf("CacheHits = %d, want %d", st.CacheHits, want)
	}
}
