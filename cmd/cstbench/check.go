package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// result is one run as the benchmark observed it.
type result struct {
	Run     run
	Latency float64 // seconds, submit to terminal state (or one Tune call)
	Err     error   // refused submit, transport error or Tune error
	MemMB   float64 // memory footprint when the run completed

	State     campaign.State // daemon workloads only
	Found     bool
	BestKey   string
	BestMS    float64
	Canonical string                // daemon workloads only
	History   []campaign.Transition // daemon workloads only
	StoreHits int
	StoreMiss int
}

// check verifies one run's output: the campaign completed with a result, and
// its best_ms bit-equals a fresh simulator's measurement of best_key. The
// fresh simulator shares no cache, store or journal with the program, so a
// wrong value served by any of them is caught here.
func check(r result, daemon bool) error {
	if r.Err != nil {
		return r.Err
	}
	if daemon && r.State != campaign.StateCompleted {
		return fmt.Errorf("run %d: campaign ended %s", r.Run.Index, r.State)
	}
	if !r.Found {
		return fmt.Errorf("run %d: no best setting found", r.Run.Index)
	}
	want, err := remeasure(r.Run.Stencil, r.Run.Arch, r.BestKey)
	if err != nil {
		return fmt.Errorf("run %d: best_key %q: %w", r.Run.Index, r.BestKey, err)
	}
	if math.Float64bits(want) != math.Float64bits(r.BestMS) {
		return fmt.Errorf("run %d: best_ms %v, but %s measures %v", r.Run.Index, r.BestMS, r.BestKey, want)
	}
	return nil
}

func remeasure(stencilName, archName, key string) (float64, error) {
	st := stencil.ByName(stencilName)
	if st == nil {
		return 0, fmt.Errorf("unknown stencil %q", stencilName)
	}
	arch, err := gpu.ByName(archName)
	if err != nil {
		return 0, err
	}
	sp, err := space.New(st)
	if err != nil {
		return 0, err
	}
	set, err := space.ParseKey(key)
	if err != nil {
		return 0, err
	}
	return sim.New(sp, arch).Measure(set)
}

// digest is FNV-1a over the runs' canonical outcomes in list order: the
// campaigns' canonical strings, or best key and best time for library runs.
func digest(rs []result) string {
	h := fnv.New64a()
	for _, r := range rs {
		c := r.Canonical
		if c == "" {
			c = r.BestKey + " " + strconv.FormatFloat(r.BestMS, 'g', -1, 64) + "\n"
		}
		_, _ = h.Write([]byte(c)) // hash writes cannot fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
