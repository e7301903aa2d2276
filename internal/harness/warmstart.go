package harness

import (
	"context"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/space"
	"repro/internal/store"
	"repro/internal/vfs"
)

// Warm-start resolution: turning a shared result store's history into seed
// settings for a new campaign. Same-architecture bests are used directly —
// their stored times are exactly what the campaign would measure. Bests
// recorded on *other* architectures transfer through the analytical
// resource model: their stored times are meaningless here, so candidates
// are re-ranked by a hardware-normalized score (kernel.Build against the
// target arch) before seeding — the paper's cross-platform premise that
// good settings are shaped by data movement and occupancy, which the model
// captures, not by absolute clocks, which it must ignore.

// ResolveWarmKeys picks up to n warm-start setting keys for fx from the
// store. Same-arch entries come first (best stored time first); remaining
// slots fill with cross-arch candidates re-ranked by TransferScore on fx's
// architecture. The result is deterministic for a given store content and
// always non-nil, so callers can persist "resolved, found nothing" ([]) and
// never re-resolve against a store that has since grown.
func ResolveWarmKeys(st *store.Store, fx *Fixture, n int) []string {
	keys := []string{}
	if st == nil || n <= 0 {
		return keys
	}
	shape := store.ShapeFingerprint(fx.Stencil)
	arch := store.ArchFingerprint(fx.Sim.Arch)
	seen := map[string]struct{}{}
	add := func(settingKey string) bool {
		if _, dup := seen[settingKey]; dup {
			return len(keys) < n
		}
		s, err := space.ParseKey(settingKey)
		if err != nil || len(s) != fx.Space.N() || fx.Space.Validate(s) != nil {
			return len(keys) < n
		}
		seen[settingKey] = struct{}{}
		keys = append(keys, settingKey)
		return len(keys) < n
	}
	// Over-fetch: Best truncates before this side's validity filtering, so a
	// stale or foreign-space entry must not crowd a usable one out of the
	// slate.
	for _, e := range st.Best(shape, arch, 8*n) {
		if !add(e.Setting) {
			return keys
		}
	}
	// Cross-architecture transfer: pull a generous candidate slate (other
	// arches' rankings only loosely predict this one's), re-rank by the
	// analytical model on the target arch, and take the best.
	cand := st.Best(shape, "", 8*n)
	type scored struct {
		key   string
		score float64
	}
	var ranked []scored
	for _, e := range cand {
		if e.Arch == arch {
			continue
		}
		if _, dup := seen[e.Setting]; dup {
			continue
		}
		s, err := space.ParseKey(e.Setting)
		if err != nil || len(s) != fx.Space.N() {
			continue
		}
		sc, ok := TransferScore(fx, s)
		if !ok {
			continue
		}
		ranked = append(ranked, scored{key: e.Setting, score: sc})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score < ranked[j].score
		}
		return ranked[i].key < ranked[j].key
	})
	for _, r := range ranked {
		if !add(r.key) {
			break
		}
	}
	return keys
}

// TransferScore ranks a setting on fx's architecture without measuring it:
// lower is better. The score multiplies the model's per-point memory and
// instruction work by an occupancy penalty — a setting that keeps the
// target GPU busy while moving little data ranks first. Settings the
// target cannot build (register/shared-memory overflow) return ok=false.
func TransferScore(fx *Fixture, s space.Setting) (float64, bool) {
	if fx.Space.Validate(s) != nil {
		return 0, false
	}
	k, err := kernel.Build(fx.Space, s, fx.Sim.Arch)
	if err != nil {
		return 0, false
	}
	occ := k.Occ.Achieved
	if occ < 0.05 {
		occ = 0.05 // floor: near-zero occupancy would blow up the ratio
	}
	score := k.LoadsPerPoint * k.InstrPerPoint / occ
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return 0, false
	}
	return score, true
}

// WarmStartReport is the outcome of a cold-vs-warm campaign comparison: the
// measurement counts at which each run first reached the cold run's best
// time, plus the warm seeds that were injected.
type WarmStartReport struct {
	ColdBestMS float64
	WarmBestMS float64
	// ColdEvalsToBest / WarmEvalsToBest count measured episodes up to and
	// including the one that first reached ColdBestMS.
	ColdEvalsToBest int
	WarmEvalsToBest int
	ColdEvals       int
	WarmEvals       int
	WarmKeys        []string
}

// WarmStartCompare runs cfg twice against fx: a cold campaign publishing
// into a fresh store at storeDir, then — after resolving up to n warm-start
// keys from that store — a warm campaign seeded with them but *without* the
// store, so every warm episode is genuinely measured and the comparison
// isolates the warm start from store-hit reuse. It reports how many measured
// episodes each run needed to reach the cold run's best.
func WarmStartCompare(ctx context.Context, fx *Fixture, cfg CampaignConfig, storeDir string, n int) (*WarmStartReport, error) {
	st, err := store.OpenFS(vfs.OS, storeDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = st.Close() // read-back is done; counters already snapshotted
	}()
	cold := cfg
	cold.Store = st
	coldRes, err := RunCampaign(ctx, fx, cold)
	if err != nil {
		return nil, err
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}
	keys := ResolveWarmKeys(st, fx, n)
	warm := cfg
	warm.WarmStart = ParseWarmKeys(fx.Space, keys)
	warmRes, err := RunCampaign(ctx, fx, warm)
	if err != nil {
		return nil, err
	}
	return &WarmStartReport{
		ColdBestMS:      coldRes.BestMS,
		WarmBestMS:      warmRes.BestMS,
		ColdEvalsToBest: evalsToReach(coldRes.Trajectory, coldRes.BestMS),
		WarmEvalsToBest: evalsToReach(warmRes.Trajectory, coldRes.BestMS),
		ColdEvals:       coldRes.Stats.Evaluations,
		WarmEvals:       warmRes.Stats.Evaluations,
		WarmKeys:        keys,
	}, nil
}

// evalsToReach returns the measured-episode count at the first trajectory
// point whose best time is at or below target, or -1 if the run never got
// there.
func evalsToReach(traj []engine.Point, target float64) int {
	for _, p := range traj {
		if p.BestMS <= target+1e-12 {
			return p.Evals
		}
	}
	return -1
}

// ParseWarmKeys materializes persisted warm-start keys into settings,
// dropping any the space no longer accepts.
func ParseWarmKeys(sp *space.Space, keys []string) []space.Setting {
	if len(keys) == 0 {
		return nil
	}
	out := make([]space.Setting, 0, len(keys))
	for _, k := range keys {
		s, err := space.ParseKey(k)
		if err != nil || len(s) != sp.N() || sp.Validate(s) != nil {
			continue
		}
		out = append(out, s)
	}
	return out
}
