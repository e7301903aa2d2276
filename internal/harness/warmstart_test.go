package harness

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/vfs"
)

// The two-process test re-execs this test binary with these set; the child
// body (TestMain) runs one full campaign publishing into the shared store.
const (
	childStoreEnv = "CSHARNESS_TEST_STORE_DIR"
	childSeedEnv  = "CSHARNESS_TEST_SEED"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(childStoreEnv); dir != "" {
		runChildCampaign(dir, os.Getenv(childSeedEnv))
		return
	}
	os.Exit(m.Run())
}

// runChildCampaign is the child-process body: one campaign against the
// shared store directory, publishing every measured episode.
func runChildCampaign(dir, seedStr string) {
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: seed:", err)
		os.Exit(2)
	}
	st, err := store.OpenFS(vfs.OS, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: store:", err)
		os.Exit(2)
	}
	fx, err := NewFixture(stencil.Helmholtz(), gpu.A100(), 32, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: fixture:", err)
		os.Exit(2)
	}
	if _, err := RunCampaign(context.Background(), fx, CampaignConfig{
		Method:  "cstuner",
		BudgetS: 8,
		Seed:    seed,
		Store:   st,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "child: campaign:", err)
		os.Exit(2)
	}
	if err := st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "child: close:", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// TestTwoProcessCampaignsShareStore runs two real campaign processes against
// one store directory concurrently, then proves the directory is intact and
// usable: a third (in-process) campaign with one child's seed re-runs the
// same measurement sequence and must serve it from the store.
func TestTwoProcessCampaignsShareStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	var kids []*exec.Cmd
	for _, seed := range []string{"3", "4"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), childStoreEnv+"="+dir, childSeedEnv+"="+seed)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, cmd)
	}
	for _, cmd := range kids {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("child campaign failed: %v", err)
		}
	}

	st, err := store.OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.Quarantined != nil || stats.SkippedSegments != 0 {
		t.Fatalf("shared store corrupted by concurrent campaigns: %+v", stats)
	}
	if stats.Keys == 0 || stats.Segments != 2 {
		t.Fatalf("stats = %+v, want records from 2 child segments", stats)
	}

	fx, err := NewFixture(stencil.Helmholtz(), gpu.A100(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCampaign(context.Background(), fx, CampaignConfig{
		Method:  "cstuner",
		BudgetS: 8,
		Seed:    3, // same identity as the first child: every episode is stored
		Store:   st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StoreHits == 0 {
		t.Fatalf("re-run against the shared store measured everything again: %+v", res.Stats)
	}
	// Store hits are free, so the re-run pushes past the cold run's budget
	// horizon into new settings — every re-measured episode it does pay for
	// must be genuinely new, i.e. a counted store miss.
	if res.Stats.Evaluations > res.Stats.StoreMisses {
		t.Fatalf("re-run re-measured stored settings: %+v", res.Stats)
	}
}

// TestWarmStartReachesColdBestWithFewerMeasurements is the PR's headline
// claim: a warm-started campaign (seeded from the store, but measuring
// everything itself) reaches the cold campaign's best kernel time with at
// least 30% fewer measured episodes.
func TestWarmStartReachesColdBestWithFewerMeasurements(t *testing.T) {
	fx := resumeFixture(t)
	rep, err := WarmStartCompare(context.Background(), fx, CampaignConfig{
		Method:  "cstuner",
		BudgetS: 20,
		Seed:    3,
	}, t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WarmKeys) == 0 {
		t.Fatal("cold campaign left nothing to warm-start from")
	}
	if rep.WarmBestMS > rep.ColdBestMS+1e-12 {
		t.Fatalf("warm best %.9f worse than cold best %.9f", rep.WarmBestMS, rep.ColdBestMS)
	}
	if rep.ColdEvalsToBest <= 0 {
		t.Fatalf("cold run has no best-reaching point: %+v", rep)
	}
	if rep.WarmEvalsToBest < 0 {
		t.Fatalf("warm run never reached the cold best: %+v", rep)
	}
	if limit := 7 * rep.ColdEvalsToBest / 10; rep.WarmEvalsToBest > limit {
		t.Fatalf("warm start saved too little: warm reached the cold best at eval %d, cold at %d (need <= %d)",
			rep.WarmEvalsToBest, rep.ColdEvalsToBest, limit)
	}
}

// validSettings draws n distinct valid settings from the fixture's space.
func validSettings(t *testing.T, fx *Fixture, n int, seed int64) []space.Setting {
	t.Helper()
	rng := stats.NewRand(seed)
	seen := map[string]bool{}
	var out []space.Setting
	for len(out) < n {
		s := fx.Space.Random(rng)
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// buildableSettings is validSettings restricted to settings the target
// architecture can actually build (TransferScore ok) — what a cross-arch
// candidate must be to survive re-ranking.
func buildableSettings(t *testing.T, fx *Fixture, n int, seed int64) []space.Setting {
	t.Helper()
	rng := stats.NewRand(seed)
	seen := map[string]bool{}
	var out []space.Setting
	for len(out) < n {
		s := fx.Space.Random(rng)
		k := s.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := TransferScore(fx, s); ok {
			out = append(out, s)
		}
	}
	return out
}

func TestResolveWarmKeysSameArchFirst(t *testing.T) {
	fx := resumeFixture(t)
	st, err := store.OpenFS(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	arch := store.ArchFingerprint(fx.Sim.Arch)
	shape := store.ShapeFingerprint(fx.Stencil)
	sets := validSettings(t, fx, 4, 77)

	st.Put(store.Key(arch, shape, sets[0].Key()), 3)
	st.Put(store.Key(arch, shape, sets[1].Key()), 1)
	st.Put(store.Key(arch, shape, sets[2].Key()), 2)
	st.Put(store.Key(arch, shape, "not a parseable setting"), 0.1) // must be skipped
	st.Put(store.Key(arch, "shape:other", sets[3].Key()), 0.1)     // other workload: ignored

	keys := ResolveWarmKeys(st, fx, 2)
	if len(keys) != 2 || keys[0] != sets[1].Key() || keys[1] != sets[2].Key() {
		t.Fatalf("keys = %v, want best two same-arch settings", keys)
	}

	// Never nil, even with nothing to offer: callers persist "resolved,
	// found nothing" and must be able to tell it from "never resolved".
	if got := ResolveWarmKeys(st, fx, 0); got == nil {
		t.Fatal("n=0 returned nil")
	}
	if got := ResolveWarmKeys(nil, fx, 4); got == nil || len(got) != 0 {
		t.Fatalf("nil store returned %v", got)
	}
}

func TestResolveWarmKeysCrossArchTransfer(t *testing.T) {
	fx := resumeFixture(t)
	st, err := store.OpenFS(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	arch := store.ArchFingerprint(fx.Sim.Arch)
	otherArch := store.ArchFingerprint(gpu.V100())
	if arch == otherArch {
		t.Fatal("test needs two distinct arch fingerprints")
	}
	shape := store.ShapeFingerprint(fx.Stencil)
	sets := buildableSettings(t, fx, 6, 78)

	// One same-arch entry; the rest recorded on another architecture with
	// stored times that must NOT be taken at face value.
	st.Put(store.Key(arch, shape, sets[0].Key()), 5)
	for i, s := range sets[1:] {
		st.Put(store.Key(otherArch, shape, s.Key()), float64(i)+1)
	}

	keys := ResolveWarmKeys(st, fx, 4)
	if len(keys) != 4 {
		t.Fatalf("keys = %v, want 4", keys)
	}
	if keys[0] != sets[0].Key() {
		t.Fatalf("same-arch entry must rank first: %v", keys)
	}
	// The cross-arch tail must be ordered by TransferScore, not stored ms.
	for i := 1; i < len(keys)-1; i++ {
		si, _ := space.ParseKey(keys[i])
		sj, _ := space.ParseKey(keys[i+1])
		sci, oki := TransferScore(fx, si)
		scj, okj := TransferScore(fx, sj)
		if !oki || !okj {
			t.Fatalf("resolved key does not score: %v", keys)
		}
		if sci > scj {
			t.Fatalf("cross-arch keys out of transfer-score order at %d: %v > %v", i, sci, scj)
		}
	}
	// Determinism: same store, same answer.
	again := ResolveWarmKeys(st, fx, 4)
	for i := range keys {
		if again[i] != keys[i] {
			t.Fatalf("resolution not deterministic: %v vs %v", keys, again)
		}
	}
}

func TestParseWarmKeys(t *testing.T) {
	fx := resumeFixture(t)
	sets := validSettings(t, fx, 2, 79)
	keys := []string{sets[0].Key(), "garbage", sets[1].Key()}
	got := ParseWarmKeys(fx.Space, keys)
	if len(got) != 2 || got[0].Key() != sets[0].Key() || got[1].Key() != sets[1].Key() {
		t.Fatalf("ParseWarmKeys = %v", got)
	}
	if ParseWarmKeys(fx.Space, nil) != nil {
		t.Fatal("empty keys must parse to nil")
	}
}

// TestWarmStartEntersFingerprint: warm seeds change the measurement
// sequence, so they must change the campaign fingerprint — and the store
// itself must not (journals stay interoperable across store configurations).
func TestWarmStartEntersFingerprint(t *testing.T) {
	fx := resumeFixture(t)
	base := CampaignConfig{Method: "cstuner", BudgetS: 10, Seed: 1}
	fpBase := CampaignFingerprint(fx, base)

	warm := base
	warm.WarmStart = []space.Setting{fx.Space.Default()}
	if fp := CampaignFingerprint(fx, warm); fp == fpBase {
		t.Fatal("warm seeds did not change the fingerprint")
	}

	st, err := store.OpenFS(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored := base
	stored.Store = st
	if fp := CampaignFingerprint(fx, stored); fp != fpBase {
		t.Fatal("attaching a store changed the fingerprint; journals would stop interoperating")
	}
}
