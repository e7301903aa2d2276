package kernel

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// buildSweepDigest is the FNV-64a digest of every Kernel field (or the
// error text) over 500 seeded random settings per Table III stencil on the
// A100 and the V100. Any change to the resource model, the geometry or the
// access-pattern estimate moves it; rewrites of their arithmetic must not.
const buildSweepDigest = "01a0b7f794ac028f"

// writeKernelFields renders every field of k: pointers by name, floats by
// their bit patterns, everything else with %v.
func writeKernelFields(w io.Writer, k *Kernel) {
	v := reflect.ValueOf(k).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		fmt.Fprintf(w, "%s=", v.Type().Field(i).Name)
		switch {
		case f.Type() == reflect.TypeOf(k.Stencil):
			fmt.Fprint(w, k.Stencil.Name)
		case f.Type() == reflect.TypeOf(k.Arch):
			fmt.Fprint(w, k.Arch.Name)
		case f.Kind() == reflect.Float64:
			fmt.Fprintf(w, "%x", math.Float64bits(f.Float()))
		case f.Type() == reflect.TypeOf(k.Occ):
			o := k.Occ
			fmt.Fprintf(w, "%d/%d/%d/%x/%s", o.BlocksPerSM, o.WarpsPerBlock, o.WarpsPerSM,
				math.Float64bits(o.Achieved), o.Limiter)
		default:
			fmt.Fprintf(w, "%v", f.Interface())
		}
		fmt.Fprint(w, ";")
	}
}

// emitSweepDigest is the FNV-64a digest of EmitCUDA's text for every kernel
// the Build sweep compiles. Emission rewrites must leave it byte for byte.
const emitSweepDigest = "35db5a0f17f1f841"

// sweepBuilds builds the sweep's 500 seeded random settings per Table III
// stencil on the A100 and the V100 and hands each outcome to visit.
func sweepBuilds(t *testing.T, visit func(arch *gpu.Arch, st *stencil.Stencil, s space.Setting, k *Kernel, err error)) {
	t.Helper()
	for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
		for si, st := range stencil.Suite() {
			sp, err := space.New(st)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRand(int64(1000 + si))
			for n := 0; n < 500; n++ {
				s := sp.Random(rng)
				k, err := Build(sp, s, arch)
				visit(arch, st, s, k, err)
			}
		}
	}
}

func TestBuildSweepDigest(t *testing.T) {
	h := fnv.New64a()
	valid := 0
	sweepBuilds(t, func(arch *gpu.Arch, st *stencil.Stencil, s space.Setting, k *Kernel, err error) {
		fmt.Fprintf(h, "%s %s %s: ", arch.Name, st.Name, s.Key())
		if err != nil {
			fmt.Fprintf(h, "error %v\n", err)
			return
		}
		valid++
		writeKernelFields(h, k)
		fmt.Fprintln(h)
	})
	if valid < 1000 {
		t.Fatalf("only %d of 8000 sweep settings built; the sweep no longer covers the model", valid)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != buildSweepDigest {
		t.Fatalf("Build sweep digest = %s, want %s (%d valid kernels)", got, buildSweepDigest, valid)
	}
}

func TestEmitSweepDigest(t *testing.T) {
	h := fnv.New64a()
	valid := 0
	sweepBuilds(t, func(arch *gpu.Arch, st *stencil.Stencil, s space.Setting, k *Kernel, err error) {
		if err != nil {
			return
		}
		valid++
		fmt.Fprintf(h, "%s %s %s:\n%s", arch.Name, st.Name, s.Key(), k.EmitCUDA())
	})
	if got := fmt.Sprintf("%016x", h.Sum64()); got != emitSweepDigest {
		t.Fatalf("EmitCUDA sweep digest = %s, want %s (%d kernels)", got, emitSweepDigest, valid)
	}
}
