package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// TestCheckCatchesCorruptBestMS: a best_ms one ulp off what the setting
// measures, as a wrong value served by a cache, store or journal would be,
// fails the check.
func TestCheckCatchesCorruptBestMS(t *testing.T) {
	sp, err := space.New(stencil.ByName("helmholtz"))
	if err != nil {
		t.Fatal(err)
	}
	best := sp.Default()
	ms, err := sim.New(sp, gpu.V100()).Measure(best)
	if err != nil {
		t.Fatal(err)
	}
	good := result{
		Run:   run{Stencil: "helmholtz", Arch: "v100"},
		State: campaign.StateCompleted, Found: true, BestKey: best.Key(), BestMS: ms,
	}
	if err := check(good, true); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	bad := good
	bad.BestMS = math.Nextafter(ms, math.Inf(1))
	if err := check(bad, true); err == nil || !strings.Contains(err.Error(), "measures") {
		t.Fatalf("corrupted best_ms accepted (err %v)", err)
	}
	if failed := verify([]result{good, bad}, true); failed != 1 {
		t.Fatalf("verify counted %d failures, want 1", failed)
	}
	failed := good
	failed.State = campaign.StateFailed
	if check(failed, true) == nil {
		t.Fatal("failed campaign accepted")
	}
}

// TestDigestFollowsOrder: the digest covers every run's outcome in list
// order.
func TestDigestFollowsOrder(t *testing.T) {
	a := result{Canonical: "a"}
	b := result{BestKey: "k", BestMS: 1.5}
	if digest([]result{a, b}) == digest([]result{b, a}) {
		t.Fatal("digest ignores order")
	}
	c := b
	c.BestMS = math.Nextafter(1.5, 2)
	if digest([]result{a, b}) == digest([]result{a, c}) {
		t.Fatal("digest ignores the last bit of best_ms")
	}
}
