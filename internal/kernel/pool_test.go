package kernel

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// buildSweep returns a deterministic set of valid kernels across the whole
// stencil suite: up to perStencil Build-able settings drawn from a seeded
// RNG, spanning shared/plain/streaming/prefetch variants by volume.
func buildSweep(t *testing.T, perStencil int) []*Kernel {
	t.Helper()
	arch := gpu.A100()
	var out []*Kernel
	for _, st := range stencil.Suite() {
		sp, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(20260808)
		kept := 0
		for i := 0; i < 400 && kept < perStencil; i++ {
			s := sp.Random(rng)
			k, err := Build(sp, s, arch)
			if err != nil {
				continue
			}
			out = append(out, k)
			kept++
		}
		if kept == 0 {
			t.Fatalf("%s: sweep produced no valid kernels", st.Name)
		}
	}
	return out
}

// freshEmit renders a kernel through a fresh unpooled buffer — the reference
// the pooled path must match byte-for-byte.
func freshEmit(k *Kernel) string {
	var b bytes.Buffer
	k.emitCUDA(&b)
	return b.String()
}

// TestEmitCUDAByteIdenticalUnderPooling pins the pooling contract: EmitCUDA
// through reused pool buffers emits exactly the bytes a fresh buffer does,
// across a seeded sweep, in both iteration directions and over repeated
// passes — so a stale byte from a previous (larger) kernel in a recycled
// buffer can never leak into a later emission.
func TestEmitCUDAByteIdenticalUnderPooling(t *testing.T) {
	kernels := buildSweep(t, 40)
	refs := make([]string, len(kernels))
	for i, k := range kernels {
		refs[i] = freshEmit(k)
	}
	for pass := 0; pass < 3; pass++ {
		for i, k := range kernels {
			if got := k.EmitCUDA(); got != refs[i] {
				t.Fatalf("pass %d forward kernel %d (%s %s): pooled emission diverged from fresh buffer",
					pass, i, k.Stencil.Name, k.Setting)
			}
		}
		for i := len(kernels) - 1; i >= 0; i-- {
			if got := kernels[i].EmitCUDA(); got != refs[i] {
				t.Fatalf("pass %d reverse kernel %d (%s %s): pooled emission diverged from fresh buffer",
					pass, i, kernels[i].Stencil.Name, kernels[i].Setting)
			}
		}
	}
}

// TestEmitCUDAParallelRace hammers pooled emission from many goroutines
// under the race detector. Every kernel is first pinned serially by the
// existing static verifier (verify_test.go) — structure, smem accounting,
// tap offsets, TB defines — then eight goroutines emit random kernels
// concurrently and compare against the serial reference bytes, so a pooled
// buffer shared across goroutines would surface as either a race report or
// a byte diff.
func TestEmitCUDAParallelRace(t *testing.T) {
	kernels := buildSweep(t, 24)
	refs := make([]string, len(kernels))
	for i, k := range kernels {
		verifyEmitted(t, k.Stencil, k.Setting, k)
		refs[i] = freshEmit(k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRand(int64(100 + g))
			for n := 0; n < 200; n++ {
				i := rng.Intn(len(kernels))
				if got := kernels[i].EmitCUDA(); got != refs[i] {
					t.Errorf("goroutine %d: kernel %d emission diverged under concurrency", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
