package campaign

import (
	"testing"
	"time"
)

// primeWarmRoot runs 32 campaigns shaped like cstbench's daemon-warm
// priming pass into a fresh root with the store on: every method on every
// stencil, half of each stencil's methods on each GPU, at dataset size 64
// and a 400 s budget. It returns the closed root.
func primeWarmRoot(b *testing.B) string {
	b.Helper()
	root := b.TempDir()
	reg, err := Open(root, Options{Slots: 2, EnableStore: true})
	if err != nil {
		b.Fatal(err)
	}
	methods := []string{"cstuner", "opentuner", "garvey", "artemis"}
	stencils := []string{"j3d7pt", "j3d27pt", "helmholtz", "cheby", "hypterm", "addsgd4", "addsgd6", "rhs4center"}
	var camps []*Campaign
	for si, st := range stencils {
		for mi, m := range methods {
			c, err := reg.Submit(Spec{Tenant: "t0", Method: m, Stencil: st, Arch: []string{"a100", "v100"}[(si+mi)%2],
				DatasetSize: 64, BudgetS: 400, Seed: int64(1 + si*len(methods) + mi)})
			if err != nil {
				b.Fatal(err)
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
			b.Fatalf("priming campaign %s ended %s (%q)", c.ID, c.State(), c.Status().Reason)
		}
	}
	if err := reg.Close(); err != nil {
		b.Fatal(err)
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
		reg, err := Open(root, Options{Slots: 2, EnableStore: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
