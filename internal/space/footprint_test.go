package space

import (
	"testing"

	"repro/internal/stencil"
)

// TestFootprintMemo checks the memo's bookkeeping: a power-of-two cluster
// fills its slot on the first read and is served from it afterwards, and
// other extents, or a space without a memo, are counted on every call.
func TestFootprintMemo(t *testing.T) {
	st := stencil.RHS4Center()
	sp, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	slot, ok := footprintSlot(4, 2, 1)
	if !ok {
		t.Fatal("(4,2,1) has no memo slot")
	}
	want := st.Footprint(4, 2, 1)
	if v := sp.footprints[slot].Load(); v != 0 {
		t.Fatalf("slot filled before the first read: %d", v)
	}
	if got := sp.Footprint(4, 2, 1); got != want {
		t.Fatalf("miss = %d, want %d", got, want)
	}
	if v := sp.footprints[slot].Load(); v != int32(want+1) {
		t.Fatalf("slot after the miss = %d, want %d", v, want+1)
	}
	// A hit returns the slot without counting again.
	sp.footprints[slot].Store(1000)
	if got := sp.Footprint(4, 2, 1); got != 999 {
		t.Fatalf("hit = %d, want the slot's 999", got)
	}

	for _, c := range [][3]int{{3, 1, 1}, {1, 6, 1}, {1, 1, 0}, {1 << footprintAxis, 1, 1}} {
		if _, ok := footprintSlot(c[0], c[1], c[2]); ok {
			t.Fatalf("%v has a memo slot", c)
		}
	}
	if got, want := sp.Footprint(3, 2, 1), st.Footprint(3, 2, 1); got != want {
		t.Fatalf("direct count = %d, want %d", got, want)
	}
	for i := range sp.footprints {
		if v := sp.footprints[i].Load(); v != 0 && i != slot {
			t.Fatalf("slot %d filled by a read that has no slot", i)
		}
	}

	bare := &Space{Stencil: st}
	if got, want := bare.Footprint(4, 2, 1), st.Footprint(4, 2, 1); got != want {
		t.Fatalf("space without a memo = %d, want %d", got, want)
	}
}

// TestNewSpacesShareNoMemo builds two spaces from one stencil: each gets its
// own memo, so reads through one never fill the other's.
func TestNewSpacesShareNoMemo(t *testing.T) {
	st := stencil.J3D7PT()
	a, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	if a.footprints == b.footprints {
		t.Fatal("two spaces share one footprint memo")
	}
	a.Footprint(2, 2, 2)
	slot, _ := footprintSlot(2, 2, 2)
	if b.footprints[slot].Load() != 0 {
		t.Fatal("a read through one space filled the other's memo")
	}
}
