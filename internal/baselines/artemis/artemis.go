// Package artemis re-implements the Artemis comparator (Rawat et al.,
// IPDPS'19, "On optimizing complex stencils on GPUs") as the paper uses it:
// hierarchical auto-tuning driven by expert knowledge — the computation is
// tuned for the high-impact optimizations first (thread-block geometry and
// streaming), a few high-performance candidates are carried forward, and the
// remaining optimizations are refined on those candidates in impact order.
package artemis

import (
	"context"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/space"
	"repro/internal/stats"
)

// topK candidates survive each hierarchy level (Artemis keeps "a few
// high-performance candidates").
const topK = 5

// Tuner is the Artemis comparator.
type Tuner struct{}

// New returns the paper's configuration.
func New() *Tuner { return &Tuner{} }

// Name implements baselines.Tuner.
func (t *Tuner) Name() string { return "artemis" }

type candidate struct {
	set space.Setting
	ms  float64
}

// Tune implements baselines.Tuner.
func (t *Tuner) Tune(ctx context.Context, eng *engine.Engine, _ *dataset.Dataset, seed int64, stop func() bool) error {
	stop = engine.Stop(ctx, stop)
	measure := eng.Probe(ctx, stop) // memoized: re-probing a known setting is free
	sp := eng.Space()
	rng := stats.NewRand(seed)

	// ---- Level 1: high impact — thread-block geometry × streaming -------
	level1 := tbStreamingCandidates(sp)
	var pool []candidate
	for _, set := range level1 {
		if stop() {
			break
		}
		sp.Repair(set, rng)
		if sp.Validate(set) != nil {
			continue
		}
		if ms := measure(set); !math.IsInf(ms, 1) {
			pool = append(pool, candidate{set: set, ms: ms})
		}
	}
	pool = top(pool, topK)
	if len(pool) == 0 {
		return nil // no valid level-1 candidate: nothing to refine
	}

	// ---- Level 2: medium impact — shared memory × unrolling -------------
	var pool2 []candidate
	for _, c := range pool {
		for _, sh := range []int{space.Off, space.On} {
			for _, uf := range [][3]int{{1, 1, 1}, {2, 1, 1}, {4, 1, 1}, {1, 2, 1}, {2, 2, 1}, {1, 1, 2}, {4, 2, 1}} {
				if stop() {
					break
				}
				cand := c.set.Clone()
				cand[space.UseShared] = sh
				cand[space.UFX], cand[space.UFY], cand[space.UFZ] = uf[0], uf[1], uf[2]
				sp.Repair(cand, rng)
				if sp.Validate(cand) != nil {
					continue
				}
				if ms := measure(cand); !math.IsInf(ms, 1) {
					pool2 = append(pool2, candidate{set: cand, ms: ms})
				}
			}
		}
	}
	if len(pool2) > 0 {
		pool = top(pool2, topK)
	}

	// ---- Level 3: low impact — greedy refinement of the remainder -------
	lowImpact := []int{
		space.UseConstant, space.UseRetiming, space.UsePrefetching,
		space.BMX, space.BMY, space.BMZ, space.CMX, space.CMY, space.CMZ,
	}
	best := pool[0]
	for _, p := range lowImpact {
		if stop() {
			break
		}
		vals := sp.Params[p].Values
		limit := len(vals)
		if limit > 4 {
			limit = 4 // expert knowledge: large merge factors never win
		}
		for _, v := range vals[:limit] {
			cand := best.set.Clone()
			cand[p] = v
			sp.Repair(cand, rng)
			if sp.Validate(cand) != nil {
				continue
			}
			if ms := measure(cand); ms < best.ms {
				best = candidate{set: cand, ms: ms}
			}
		}
	}
	return nil
}

// tbStreamingCandidates enumerates the expert-curated high-impact level:
// warp-friendly thread-block shapes crossed with streaming configurations.
func tbStreamingCandidates(sp *space.Space) []space.Setting {
	tbShapes := [][3]int{
		{32, 2, 1}, {32, 4, 1}, {32, 8, 1}, {64, 2, 1}, {64, 4, 1},
		{64, 8, 1}, {128, 1, 1}, {128, 2, 1}, {128, 4, 1}, {256, 1, 1},
		{256, 2, 1}, {256, 4, 1}, {512, 1, 1}, {512, 2, 1}, {1024, 1, 1},
		{32, 4, 2}, {32, 8, 4}, {16, 16, 1}, {16, 8, 4}, {8, 8, 8},
	}
	streams := []struct {
		on, sd, sb int
	}{
		{space.Off, 1, 1},
		{space.On, 3, 1}, {space.On, 3, 8}, {space.On, 3, 32},
		{space.On, 2, 8},
	}
	var out []space.Setting
	for _, tb := range tbShapes {
		for _, st := range streams {
			s := sp.Default()
			s[space.TBX], s[space.TBY], s[space.TBZ] = tb[0], tb[1], tb[2]
			s[space.UseStreaming] = st.on
			if st.on == space.On {
				s[space.SD], s[space.SB] = st.sd, st.sb
				// Streamed kernels walk the streaming dimension serially.
				switch st.sd {
				case 1:
					s[space.TBX] = 1
				case 2:
					s[space.TBY] = 1
				case 3:
					s[space.TBZ] = 1
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// top returns the k fastest candidates.
func top(pool []candidate, k int) []candidate {
	sort.Slice(pool, func(a, b int) bool { return pool[a].ms < pool[b].ms })
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool
}
