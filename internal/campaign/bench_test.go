package campaign

import (
	"testing"
	"time"
)

// primeWarmRoot runs 32 campaigns shaped like cstbench's daemon-warm
// priming pass into a fresh root with the store on: every method on every
// stencil, half of each stencil's methods on each GPU, at dataset size 64
// and a 400 s budget. It returns the closed root.
func primeWarmRoot(tb testing.TB) string {
	tb.Helper()
	root := tb.TempDir()
	reg, err := Open(root, Options{Slots: 2, EnableStore: true})
	if err != nil {
		tb.Fatal(err)
	}
	methods := []string{"cstuner", "opentuner", "garvey", "artemis"}
	stencils := []string{"j3d7pt", "j3d27pt", "helmholtz", "cheby", "hypterm", "addsgd4", "addsgd6", "rhs4center"}
	var camps []*Campaign
	for si, st := range stencils {
		for mi, m := range methods {
			c, err := reg.Submit(Spec{Tenant: "t0", Method: m, Stencil: st, Arch: []string{"a100", "v100"}[(si+mi)%2],
				DatasetSize: 64, BudgetS: 400, Seed: int64(1 + si*len(methods) + mi)})
			if err != nil {
				tb.Fatal(err)
			}
			camps = append(camps, c)
		}
	}
	deadline := time.Now().Add(5 * time.Minute)
	for _, c := range camps {
		for !c.State().Terminal() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if c.State() != StateCompleted {
			tb.Fatalf("priming campaign %s ended %s (%q)", c.ID, c.State(), c.Status().Reason)
		}
	}
	if err := reg.Close(); err != nil {
		tb.Fatal(err)
	}
	return root
}

// BenchmarkRegistryOpen opens and closes a root of 32 completed campaigns
// with the store on: the set-up a daemon-warm restart pays. Each open scans
// every campaign's journal once, decodes its owner records and loads the
// store's index.
func BenchmarkRegistryOpen(b *testing.B) {
	root := primeWarmRoot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reopen(b, root)
	}
}

// reopen opens the registry at root with the store on and closes it.
func reopen(tb testing.TB, root string) {
	reg, err := Open(root, Options{Slots: 2, EnableStore: true})
	if err != nil {
		tb.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		tb.Fatal(err)
	}
}

// maxOpenAllocs bounds the allocations of one store-on reopen of
// primeWarmRoot's root: 7,818 when it was set (7,819 in one run of
// twelve), with about 3% headroom.
const maxOpenAllocs = 8050

// TestRegistryOpenAllocs caps the allocations of one reopen of the root
// BenchmarkRegistryOpen reopens, so a change to the scan, the owner-record
// decoding or the store load that allocates more per reopen fails here.
func TestRegistryOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	root := primeWarmRoot(t)
	allocs := testing.AllocsPerRun(5, func() { reopen(t, root) })
	if allocs > maxOpenAllocs {
		t.Fatalf("one reopen made %.0f allocations, want at most %d", allocs, maxOpenAllocs)
	}
	t.Logf("one reopen made %.0f allocations", allocs)
}
