package kernel

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// mapUnionTaps is the set definition of Stencil.Footprint: one (array, x, y, z)
// entry per tap and cluster point, counted by a hash set. It is the oracle
// the bitset arithmetic must match exactly.
func mapUnionTaps(st *stencil.Stencil, ax, ay, az int) int {
	type key struct{ a, x, y, z int }
	set := make(map[key]struct{}, len(st.Taps)*2)
	for _, t := range st.Taps {
		for z := 0; z < az; z++ {
			for y := 0; y < ay; y++ {
				for x := 0; x < ax; x++ {
					set[key{t.Array, t.DX + x, t.DY + y, t.DZ + z}] = struct{}{}
				}
			}
		}
	}
	return len(set)
}

// mapStarArrays is the set definition of starArrays: the arrays with more
// than one distinct tap offset.
func mapStarArrays(st *stencil.Stencil) int {
	type key struct{ x, y, z int }
	perArray := make(map[int]map[key]struct{})
	for _, t := range st.Taps {
		m := perArray[t.Array]
		if m == nil {
			m = make(map[key]struct{})
			perArray[t.Array] = m
		}
		m[key{t.DX, t.DY, t.DZ}] = struct{}{}
	}
	n := 0
	for _, m := range perArray {
		if len(m) > 1 {
			n++
		}
	}
	return n
}

// syntheticStencil draws a valid stencil of 1–12 input arrays and order
// 1–4. Each array gets no taps, a centre read, or offsets drawn from its
// own asymmetric sub-box; some taps are duplicated, and the tap list is
// either left array by array in x-fastest order or shuffled.
func syntheticStencil(r *rand.Rand, id int) *stencil.Stencil {
	order := 1 + r.Intn(4)
	inputs := 1 + r.Intn(12)
	span := func() (int, int) {
		lo := -r.Intn(order + 1)
		return lo, lo + r.Intn(order-lo+1)
	}
	var taps []stencil.Tap
	for a := 0; a < inputs; a++ {
		switch r.Intn(4) {
		case 0: // no taps
		case 1:
			taps = append(taps, stencil.Tap{Array: a, Coeff: 1})
		default:
			// Rows of consecutive x offsets, so runs coalesce, at
			// random (y, z) of the sub-box.
			x0, x1 := span()
			y0, y1 := span()
			z0, z1 := span()
			for n := 1 + r.Intn(6); n > 0; n-- {
				y := y0 + r.Intn(y1-y0+1)
				z := z0 + r.Intn(z1-z0+1)
				lo := x0 + r.Intn(x1-x0+1)
				hi := lo + r.Intn(x1-lo+1)
				for x := lo; x <= hi; x++ {
					taps = append(taps, stencil.Tap{Array: a, DX: x, DY: y, DZ: z, Coeff: 1})
				}
			}
		}
	}
	if len(taps) == 0 {
		taps = append(taps, stencil.Tap{Array: r.Intn(inputs), Coeff: 1})
	}
	for n := r.Intn(4); n > 0; n-- {
		taps = append(taps, taps[r.Intn(len(taps))])
	}
	if r.Intn(2) == 0 {
		r.Shuffle(len(taps), func(i, j int) { taps[i], taps[j] = taps[j], taps[i] })
	}
	st := &stencil.Stencil{
		Name: fmt.Sprintf("synthetic%d", id), NX: 64, NY: 64, NZ: 64,
		Order: order, FLOPs: 1, Inputs: inputs, Outputs: 1, Taps: taps,
	}
	if err := st.Validate(); err != nil {
		panic(err)
	}
	return st
}

// maxClusterPoints is the largest merged-point count Build's early reject
// lets through for st on the A100 (the V100 has the same register cap).
func maxClusterPoints(st *stencil.Stencil) int {
	return 4 * gpu.A100().MaxRegsPerThread / (2 * st.Outputs)
}

// clusterShape draws (ax, ay, az) with ax·ay·az <= maxPoints, each extent
// log-uniform so both tiny and wide clusters appear, and in one of two
// draws widens one axis by the register-streaming window of 8.
func clusterShape(r *rand.Rand, maxPoints int) (int, int, int) {
	var ext [3]int
	left := maxPoints
	for _, d := range r.Perm(3) {
		e := min(1+r.Intn(1<<r.Intn(10)), left)
		ext[d] = e
		left /= e
	}
	if r.Intn(2) == 0 {
		ext[r.Intn(3)] *= 8
	}
	return ext[0], ext[1], ext[2]
}

// TestUnionTapsMatchesSetDefinition checks Stencil.Footprint against the set
// definition, and reads every cluster twice through a fresh space's memo:
// the first read of a power-of-two cluster misses and fills its slot, the
// second hits it. Other clusters, like the corners at 57, 60 and 65, are
// counted directly both times.
func TestUnionTapsMatchesSetDefinition(t *testing.T) {
	check := func(st *stencil.Stencil, ax, ay, az int) {
		t.Helper()
		want := mapUnionTaps(st, ax, ay, az)
		if got := st.Footprint(ax, ay, az); got != want {
			t.Fatalf("%s: Footprint(%d,%d,%d) = %d, set definition %d", st.Name, ax, ay, az, got, want)
		}
		sp, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, read := range []string{"first", "second"} {
			if got := sp.Footprint(ax, ay, az); got != want {
				t.Fatalf("%s: %s memo read of (%d,%d,%d) = %d, set definition %d", st.Name, read, ax, ay, az, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(7))
	for _, st := range stencil.Suite() {
		// The corners of the cluster envelope: single points, runs
		// straddling 64-bit words, the widest cluster along each axis
		// and the same widened by the streaming window; then random
		// shapes inside it.
		m := maxClusterPoints(st)
		corners := [][3]int{
			{1, 1, 1}, {2, 1, 1}, {8, 8, 2}, {56, 1, 1}, {57, 3, 1}, {60, 2, 1}, {64, 1, 1}, {65, 1, 1},
			{m, 1, 1}, {1, m, 1}, {1, 1, m}, {8 * m, 1, 1}, {1, 8 * m, 1}, {1, 1, 8 * m},
		}
		for _, c := range corners {
			check(st, c[0], c[1], c[2])
		}
		for n := 0; n < 6; n++ {
			ax, ay, az := clusterShape(r, m)
			check(st, ax, ay, az)
		}
	}
	for id := 0; id < 240; id++ {
		st := syntheticStencil(r, id)
		for n := 0; n < 2; n++ {
			ax, ay, az := clusterShape(r, 64)
			check(st, ax, ay, az)
		}
	}
}

func TestStarArraysMatchesSetDefinition(t *testing.T) {
	for _, st := range stencil.Suite() {
		if got, want := starArrays(st), mapStarArrays(st); got != want {
			t.Fatalf("%s: starArrays = %d, set definition %d", st.Name, got, want)
		}
	}
	r := rand.New(rand.NewSource(11))
	for id := 0; id < 240; id++ {
		st := syntheticStencil(r, id)
		if got, want := starArrays(st), mapStarArrays(st); got != want {
			t.Fatalf("%s: starArrays = %d, set definition %d (taps %v)", st.Name, got, want, st.Taps)
		}
	}
}

// TestBuildAllocs pins the resource model allocation-free: a successful
// Build allocates only the Kernel and its copy of the setting.
func TestBuildAllocs(t *testing.T) {
	for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
		for _, st := range stencil.Suite() {
			sp, err := space.New(st)
			if err != nil {
				t.Fatal(err)
			}
			s := sp.Default()
			if _, err := Build(sp, s, arch); err != nil {
				t.Fatalf("%s/%s default: %v", st.Name, arch.Name, err)
			}
			if n := testing.AllocsPerRun(50, func() { _, _ = Build(sp, s, arch) }); n > 2 {
				t.Errorf("%s/%s: Build allocates %v times per call, want <= 2", st.Name, arch.Name, n)
			}
		}
	}
}

// TestBuildConcurrentFootprintMemo builds the same random settings from
// several goroutines on one space, which fill its footprint memo together,
// and checks every outcome against a serial build on a fresh space.
func TestBuildConcurrentFootprintMemo(t *testing.T) {
	const goroutines = 4
	arch := gpu.A100()
	for si, st := range stencil.Suite() {
		serial, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(int64(500 + si))
		settings := make([]space.Setting, 200)
		want := make([]string, len(settings))
		for i := range settings {
			settings[i] = serial.Random(rng)
			want[i] = buildOutcome(serial, settings[i], arch)
		}

		shared, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]string, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			got[g] = make([]string, len(settings))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range settings {
					i := (n + g*len(settings)/goroutines) % len(settings)
					got[g][i] = buildOutcome(shared, settings[i], arch)
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for i := range settings {
				if got[g][i] != want[i] {
					t.Fatalf("%s: goroutine %d built setting %d as\n%s\nserially\n%s", st.Name, g, i, got[g][i], want[i])
				}
			}
		}
	}
}

// buildOutcome renders Build's kernel fields, or its error.
func buildOutcome(sp *space.Space, s space.Setting, arch *gpu.Arch) string {
	var b strings.Builder
	k, err := Build(sp, s, arch)
	if err != nil {
		return "error " + err.Error()
	}
	writeKernelFields(&b, k)
	return b.String()
}
