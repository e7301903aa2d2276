package kernel

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/gpu"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// The emitted-source verifier: EmitCUDA's text is the human-auditable record
// of what each setting does, so this test treats it as a contract and checks
// it *statically*, by parsing the source, against the resource model that
// priced the setting — over a seeded sweep of every suite stencil's space.
//
// A truly exhaustive sweep is impossible (the 19-parameter cross product is
// astronomically large), so the sweep is a fixed-seed random walk per
// stencil plus coverage assertions that every structural branch of the
// generator — shared staging on/off, streaming on/off with each of the
// three streaming dimensions, prefetch, retiming, constant memory — was
// actually emitted and verified at least once. The seed is fixed, so the
// covered set is identical on every run.
var (
	smemDeclRe   = regexp.MustCompile(`extern __shared__ double smem\[\]; // (\d+)B`)
	smemHeaderRe = regexp.MustCompile(`smem/block (\d+)B`)
	globalTapRe  = regexp.MustCompile(`in\d+\[IDX\(x([+-]\d+), y([+-]\d+), z([+-]\d+)\)\]`)
	sharedTapRe  = regexp.MustCompile(`smem\[SIDX\(([+-]\d+),([+-]\d+),([+-]\d+)\)\]`)
	syncRe       = regexp.MustCompile(`__syncthreads\(\)`)
	defineRe     = regexp.MustCompile(`#define (TBX|TBY|TBZ) (\d+)`)
)

// expectedSharedBytes recomputes the shared-memory model independently of
// resources.go: staged tile extent per axis is TB*UF*BM plus a halo of
// 2*Order, with the streamed axis (if any) keeping only its adjacent cluster
// plus halo resident, times 8 bytes per double, times the number of input
// arrays with more than one distinct tap offset.
func expectedSharedBytes(st *stencil.Stencil, s space.Setting, k *Kernel) int {
	stars := 0
	type off struct{ x, y, z int }
	perArray := map[int]map[off]bool{}
	for _, t := range st.Taps {
		if perArray[t.Array] == nil {
			perArray[t.Array] = map[off]bool{}
		}
		perArray[t.Array][off{t.DX, t.DY, t.DZ}] = true
	}
	for _, m := range perArray {
		if len(m) > 1 {
			stars++
		}
	}

	h := 2 * st.Order
	ext := [3]int{
		s[space.TBX]*s[space.UFX]*s[space.BMX] + h,
		s[space.TBY]*s[space.UFY]*s[space.BMY] + h,
		s[space.TBZ]*s[space.UFZ]*s[space.BMZ] + h,
	}
	if k.Streaming {
		adj := [3]int{
			s[space.UFX] * s[space.BMX],
			s[space.UFY] * s[space.BMY],
			s[space.UFZ] * s[space.BMZ],
		}
		ext[k.SDim-1] = adj[k.SDim-1] + h
	}
	return ext[0] * ext[1] * ext[2] * 8 * stars
}

func atoiMust(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("non-numeric capture %q: %v", s, err)
	}
	return n
}

// verifyEmitted statically checks one kernel's emitted CUDA text against the
// model that built it.
func verifyEmitted(t *testing.T, st *stencil.Stencil, s space.Setting, k *Kernel) {
	t.Helper()
	src := k.EmitCUDA()

	// __syncthreads() iff the kernel stages through shared memory: a barrier
	// without a shared tile is dead serialization; a shared tile without a
	// barrier is a data race.
	if got := len(syncRe.FindAllString(src, -1)) > 0; got != k.UsesShared {
		t.Fatalf("%s %s: __syncthreads present=%v, UsesShared=%v\n%s", st.Name, s, got, k.UsesShared, src)
	}
	decl := smemDeclRe.FindStringSubmatch(src)
	if (decl != nil) != k.UsesShared {
		t.Fatalf("%s %s: smem declaration present=%v, UsesShared=%v", st.Name, s, decl != nil, k.UsesShared)
	}

	// The declared byte count must equal both the priced SharedPerBlock and
	// an independent recomputation of the model from the raw setting.
	if k.UsesShared {
		if got := atoiMust(t, decl[1]); got != k.SharedPerBlock {
			t.Fatalf("%s %s: smem declares %dB, model priced %dB", st.Name, s, got, k.SharedPerBlock)
		}
		if want := expectedSharedBytes(st, s, k); k.SharedPerBlock != want {
			t.Fatalf("%s %s: SharedPerBlock=%dB, independent recomputation %dB", st.Name, s, k.SharedPerBlock, want)
		}
	} else if k.SharedPerBlock != 0 {
		t.Fatalf("%s %s: SharedPerBlock=%d without shared staging", st.Name, s, k.SharedPerBlock)
	}
	if hdr := smemHeaderRe.FindStringSubmatch(src); hdr == nil {
		t.Fatalf("%s %s: header lacks smem/block annotation", st.Name, s)
	} else if got := atoiMust(t, hdr[1]); got != k.SharedPerBlock {
		t.Fatalf("%s %s: header says %dB, model priced %dB", st.Name, s, got, k.SharedPerBlock)
	}

	// Every emitted tap offset — global IDX or shared SIDX — must stay
	// within the stencil's halo: an offset beyond Order indexes outside the
	// padded grid and the staged tile alike.
	for _, m := range append(globalTapRe.FindAllStringSubmatch(src, -1), sharedTapRe.FindAllStringSubmatch(src, -1)...) {
		for _, cap := range m[1:] {
			if d := atoiMust(t, cap); d > st.Order || d < -st.Order {
				t.Fatalf("%s %s: tap offset %d exceeds order %d in %q", st.Name, s, d, st.Order, m[0])
			}
		}
	}

	// The #define'd block extents must restate the setting verbatim.
	wantTB := map[string]int{"TBX": s[space.TBX], "TBY": s[space.TBY], "TBZ": s[space.TBZ]}
	seen := 0
	for _, m := range defineRe.FindAllStringSubmatch(src, -1) {
		if got := atoiMust(t, m[2]); got != wantTB[m[1]] {
			t.Fatalf("%s %s: #define %s %d, setting says %d", st.Name, s, m[1], got, wantTB[m[1]])
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("%s %s: found %d TB defines, want 3", st.Name, s, seen)
	}
}

func TestEmittedSourceInvariants(t *testing.T) {
	arch := gpu.A100()
	type coverage struct {
		shared, plain, stream, prefetch, retime, constant int
		sdim                                              [4]int
	}
	total := coverage{}
	for _, st := range stencil.Suite() {
		sp, err := space.New(st)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(20260805)
		verified := 0
		for i := 0; i < 600 && verified < 250; i++ {
			s := sp.Random(r)
			k, err := Build(sp, s, arch)
			if err != nil {
				continue // resource-invalid settings are Build's job to reject
			}
			verifyEmitted(t, st, s, k)
			verified++
			if k.UsesShared {
				total.shared++
			} else {
				total.plain++
			}
			if k.Streaming {
				total.stream++
				total.sdim[k.SDim]++
			}
			if k.Prefetch {
				total.prefetch++
			}
			if k.Retiming {
				total.retime++
			}
			if k.UsesConstant {
				total.constant++
			}
		}
		if verified == 0 {
			t.Fatalf("%s: no valid settings verified", st.Name)
		}
	}
	// Every structural branch of the generator must have been verified.
	if total.shared == 0 || total.plain == 0 || total.stream == 0 ||
		total.prefetch == 0 || total.retime == 0 || total.constant == 0 {
		t.Fatalf("sweep missed a structural branch: %+v", total)
	}
	for d := 1; d <= 3; d++ {
		if total.sdim[d] == 0 {
			t.Fatalf("sweep never streamed along dimension %d: %+v", d, total)
		}
	}
}
