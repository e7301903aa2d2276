package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// mix lists the runs' place in the fixed mix, one dimension at a time: the
// seed may reassign tenants (daemon-cold) and archs (daemon-warm) within it.
func mix(rs []run) [][]string {
	out := make([][]string, 4)
	for _, r := range rs {
		out[0] = append(out[0], fmt.Sprintf("%s/%s/%d", r.Method, r.Stencil, r.WarmStart))
		out[1] = append(out[1], r.Arch)
		out[2] = append(out[2], r.Tenant)
		out[3] = append(out[3], fmt.Sprintf("%s/%d", r.Stencil, r.Client))
	}
	return out
}

func order(rs []run) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%s/%s/%s/%s", r.Tenant, r.Method, r.Stencil, r.Arch)
	}
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestPlanSeeded: the same seed gives identical inputs; another seed gives
// the same mix in another order.
func TestPlanSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makePlan(w, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 1, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 1 gave two different plans", w)
		}
		c, _ := makePlan(w, 2, 0)
		for _, lists := range [][2][]run{{a.Runs, c.Runs}, {a.Prime, c.Prime}} {
			ma, mc := mix(lists[0]), mix(lists[1])
			for d := range ma {
				if !reflect.DeepEqual(sorted(ma[d]), sorted(mc[d])) {
					t.Errorf("%s: seeds 1 and 2 give different mixes: %v / %v", w, sorted(ma[d]), sorted(mc[d]))
				}
			}
			if len(lists[0]) > 0 && reflect.DeepEqual(order(lists[0]), order(lists[1])) {
				t.Errorf("%s: seeds 1 and 2 give the same order", w)
			}
		}
		if w == daemonCold {
			combos := map[string]bool{}
			for _, r := range a.Runs {
				combos[r.Method+"/"+r.Stencil+"/"+r.Arch] = true
			}
			if len(combos) != 64 {
				t.Errorf("daemon-cold covers %d method × stencil × arch combinations, want 64", len(combos))
			}
		}
		if len(a.Runs) != 64 {
			t.Errorf("%s: %d runs per pass, want 64", w, len(a.Runs))
		}
		seen := map[int64]bool{}
		for _, r := range append(a.Prime, a.Runs...) {
			if r.Seed <= 0 {
				t.Errorf("%s: run %d has seed %d; the probe owns seed 0", w, r.Index, r.Seed)
			}
			seen[r.Seed] = true
		}
		if want := map[string]int{daemonCold: 64, daemonWarm: 32, libraryTune: 4}[w]; len(seen) != want {
			t.Errorf("%s: %d distinct seeds, want %d", w, len(seen), want)
		}
	}
}

// TestWarmPlanOwnership: each daemon-warm client owns whole stencils, so no
// two clients touch the same store keys, and each primed spec is replayed
// once by each of the two other tenants.
func TestWarmPlanOwnership(t *testing.T) {
	p := warmPlan(3)
	owner := map[string]int{}
	for _, r := range append(p.Prime, p.Runs...) {
		if c, ok := owner[r.Stencil]; ok && c != r.Client {
			t.Fatalf("stencil %s sent by clients %d and %d", r.Stencil, c, r.Client)
		}
		owner[r.Stencil] = r.Client
	}
	perArch := map[string]int{}
	for _, r := range p.Prime {
		perArch[r.Arch]++
	}
	if perArch["a100"] != 16 || perArch["v100"] != 16 {
		t.Errorf("primed arch mix %v, want 16/16", perArch)
	}
	replays := map[int64][]string{}
	for _, r := range p.Runs {
		if r.WarmStart != 8 {
			t.Errorf("run %d: warm_start %d", r.Index, r.WarmStart)
		}
		replays[r.Seed] = append(replays[r.Seed], r.Tenant)
	}
	for seed, ts := range replays {
		if !reflect.DeepEqual(sorted(ts), []string{"t1", "t2"}) {
			t.Errorf("primed spec %d replayed by %v", seed, ts)
		}
	}
}
