package main

import (
	"fmt"
	"math/rand"
)

// The benchmark's three workloads. Each stresses a different set of layers;
// README.md gives the reason for each.
const (
	daemonCold  = "daemon-cold"
	daemonWarm  = "daemon-warm"
	libraryTune = "library-tune"
)

var workloadNames = []string{daemonCold, daemonWarm, libraryTune}

// The fixed mix every workload draws from: the four tuning methods, the
// eight Table III stencils and both modelled GPUs.
var (
	methods  = []string{"cstuner", "opentuner", "garvey", "artemis"}
	stencils = []string{"j3d7pt", "j3d27pt", "helmholtz", "cheby", "hypterm", "addsgd4", "addsgd6", "rhs4center"}
	archs    = []string{"a100", "v100"}
)

// Tenants and their fair-share weights. The daemon workloads submit under
// tenants[0..2]; daemon-warm primes its store under tenants[0] and replays
// under the other two.
var (
	tenants = []string{"t0", "t1", "t2"}
	weights = []float64{1, 1, 2}
)

// run is one unit of measured work: one campaign submitted to the daemon, or
// one Session.Tune call.
type run struct {
	Index     int     // position in the generated list; digests follow it
	Client    int     // owning client, or -1 when clients share one queue
	Tenant    string  // daemon workloads only
	Weight    float64 // daemon workloads only
	Method    string  // daemon workloads only
	Stencil   string
	Arch      string
	Seed      int64
	WarmStart int
}

// plan is one workload's generated input: the untimed priming runs (daemon-warm
// only) and the runs of one timed pass.
type plan struct {
	Workload string
	Clients  int
	Prime    []run
	Runs     []run
}

// makePlan generates a workload's inputs. The mix is fixed; seed draws only
// the order, the campaign and tune seeds, and (daemon-warm) the arch each
// method runs on. pass > 0 asks for a further timed pass: daemon-cold and
// library-tune draw fresh seeds for it so every pass does the same amount of
// fresh work, while daemon-warm resubmits the same primed specs.
func makePlan(workload string, seed int64, pass int) (*plan, error) {
	switch workload {
	case daemonCold:
		return coldPlan(seed + int64(pass)*7919), nil
	case daemonWarm:
		return warmPlan(seed), nil
	case libraryTune:
		return libraryPlan(seed + int64(pass)*7919), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// distinctSeeds draws n distinct positive seeds.
func distinctSeeds(rng *rand.Rand, n int) []int64 {
	seen := map[int64]bool{}
	out := make([]int64, 0, n)
	for len(out) < n {
		s := 1 + rng.Int63n(1<<31-1)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// coldPlan: every method × stencil × arch once, 64 campaigns from one shared
// queue, tenants assigned round-robin over the shuffled order.
func coldPlan(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	var runs []run
	for _, m := range methods {
		for _, st := range stencils {
			for _, a := range archs {
				runs = append(runs, run{Client: -1, Method: m, Stencil: st, Arch: a})
			}
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	seeds := distinctSeeds(rng, len(runs))
	for i := range runs {
		runs[i].Index, runs[i].Seed = i, seeds[i]
		runs[i].Tenant, runs[i].Weight = tenants[i%3], weights[i%3]
	}
	return &plan{Workload: daemonCold, Clients: 2, Runs: runs}
}

// warmPlan: 32 priming specs (every method × stencil, half of each stencil's
// methods on each arch) run by tenant t0; the timed pass submits each primed
// spec twice, once by t1 and once by t2, with warm_start 8. Client c owns the
// stencils at even (c=0) or odd (c=1) positions, so each client sends two of
// the 512³ and two of the 320³ stencils. Store keys are per arch and shape,
// so a campaign only ever sees store records its own client wrote, in an
// order fixed by the seed: its result is deterministic.
func warmPlan(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	var prime []run
	for si, st := range stencils {
		order := rng.Perm(len(methods))
		for k, mi := range order {
			prime = append(prime, run{Client: si % 2, Tenant: tenants[0], Weight: weights[0],
				Method: methods[mi], Stencil: st, Arch: archs[k*len(archs)/len(methods)]})
		}
	}
	seeds := distinctSeeds(rng, len(prime))
	for i := range prime {
		prime[i].Seed = seeds[i]
	}
	rng.Shuffle(len(prime), func(i, j int) { prime[i], prime[j] = prime[j], prime[i] })
	for i := range prime {
		prime[i].Index = i
	}
	var runs []run
	for _, p := range prime {
		for t := 1; t <= 2; t++ {
			r := p
			r.Tenant, r.Weight, r.WarmStart = tenants[t], weights[t], 8
			runs = append(runs, r)
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	for i := range runs {
		runs[i].Index = i
	}
	return &plan{Workload: daemonWarm, Clients: 2, Prime: prime, Runs: runs}
}

// libraryPlan: 8 stencils × 2 archs × 4 tune seeds, one caller.
func libraryPlan(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	seeds := distinctSeeds(rng, 4)
	var runs []run
	for _, st := range stencils {
		for _, a := range archs {
			for _, s := range seeds {
				runs = append(runs, run{Client: 0, Stencil: st, Arch: a, Seed: s})
			}
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	for i := range runs {
		runs[i].Index = i
	}
	return &plan{Workload: libraryTune, Clients: 1, Runs: runs}
}
