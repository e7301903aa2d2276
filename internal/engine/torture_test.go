// Torture tests for the measure path (DESIGN.md §12): the memo cache and
// the atomic hit counter must leave the determinism contract untouched.
// Duplicate-heavy inputs with a journaled failure class must replay from
// the journal to the recorded run's exact outcome. Lives in package
// engine_test so it drives the engine through its exported surface only.
package engine_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
	"repro/internal/vfs"
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
	rng := stats.NewRand(seed)
	uniq := make([]space.Setting, 0, n)
	for i := 0; i < n; i++ {
		uniq = append(uniq, sp.Random(rng))
	}
	out := make([]space.Setting, 0, 3*n)
	for _, s := range uniq {
		out = append(out, s, s.Clone(), s.Clone())
	}
	for i := len(out) - 1; i > 0; i-- { // Fisher-Yates
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// brokenTenth fails a fixed, hash-selected tenth of the settings its
// objective measures with a plain error: a deterministic compile failure,
// which is journaled, unlike a constraint rejection.
type brokenTenth struct{ sim.Objective }

func (b brokenTenth) Measure(s space.Setting) (float64, error) {
	ms, err := b.Objective.Measure(s)
	if err == nil && stats.Mix64(stats.KeyHash(s.Key()))%10 == 0 {
		return 0, errors.New("compile failed")
	}
	return ms, err
}

// fingerprint measures in one setting at a time and serializes everything
// the determinism contract covers — per-item results, stats, trajectory —
// into one string, so runs compare byte-for-byte rather than
// field-by-field.
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
	return b.String()
}

// TestTortureJournalReplayMatrix records a duplicate-heavy list with
// successes, constraint rejections and compile failures into a write-ahead
// journal, then resumes from that journal. The resumed run must (a) replay
// every journaled episode and (b) land on the recorded run's exact
// fingerprint.
func TestTortureJournalReplayMatrix(t *testing.T) {
	sp, s := tortureSpace(t)
	in := duplicateHeavyBatch(sp, 30, 42)
	walPath := filepath.Join(t.TempDir(), "torture.wal")

	newEngine := func(j *journal.Journal) *engine.Engine {
		return engine.New(brokenTenth{s}, engine.WithJournal(j))
	}
	// Record the reference run.
	j, err := journal.CreateFS(vfs.OS, walPath, "torture")
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprint(newEngine(j), in)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	jr, err := journal.OpenFS(vfs.OS, walPath, "torture")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range jr.Recovered() {
		classes[r.Class]++
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if classes[journal.ClassOK] == 0 || classes[journal.ClassPermanent] == 0 {
		t.Fatalf("journal classes %v: want both ok and permanent records", classes)
	}

	// Resume from it.
	j2, err := journal.OpenFS(vfs.OS, walPath, "torture")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	eng := newEngine(j2)
	pending := engine.PendingReplays(eng)
	if pending == 0 {
		t.Fatal("journal recovered no episodes")
	}
	if got := fingerprint(eng, in); got != ref {
		t.Fatalf("resumed fingerprint diverged:\n--- got ---\n%s\n--- want ---\n%s", got, ref)
	}
	if eng.Replayed() != pending {
		t.Fatalf("replayed %d of %d recovered episodes", eng.Replayed(), pending)
	}
	if engine.PendingReplays(eng) != 0 {
		t.Fatalf("left %d episodes unreplayed", engine.PendingReplays(eng))
	}
}
