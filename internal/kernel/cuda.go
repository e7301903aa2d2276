package kernel

import (
	"bytes"
	"strconv"

	"repro/internal/space"
)

// EmitCUDA renders the kernel as CUDA-C source text. This is the
// code-generation stage of the pipeline ("the code generation writes the
// sampled parameter settings into CUDA kernels", paper Sec. V-F): its output
// is what a GPU toolchain would compile, and its cost is charged to the
// pre-processing overhead that Fig. 12 breaks down. The text is also a
// human-auditable record of exactly which transformation each parameter
// performs.
//
// Emission writes through a pooled scratch buffer (pool.go); only the
// returned string is a fresh allocation, so per-candidate codegen does not
// re-grow a builder for every setting.
func (k *Kernel) EmitCUDA() string {
	b := getEmitBuf()
	k.emitCUDA(b)
	s := b.String()
	putEmitBuf(b)
	return s
}

// emitCUDA writes the kernel text into b. It is the whole of the emission —
// EmitCUDA only wraps it in buffer pooling — so tests can run it against a
// fresh unpooled buffer and pin byte-equality with the pooled path.
func (k *Kernel) emitCUDA(b *bytes.Buffer) {
	st := k.Stencil
	s := k.Setting
	w := cudaText{b}

	w.str("// ").str(st.Name).str(": auto-generated stencil kernel\n")
	b.WriteString("// setting: ")
	b.Write(s.AppendString(b.AvailableBuffer()))
	w.str("\n// regs/thread (est) ").dec(k.RegsPerThread).str(", smem/block ").dec(k.SharedPerBlock).
		str("B, grid ").dec(k.GridBlocks).str(" blocks x ").dec(k.ThreadsPerBlock).str(" threads\n\n")

	w.str("#define NX ").dec(st.NX).str("\n#define NY ").dec(st.NY).str("\n#define NZ ").dec(st.NZ).str("\n")
	w.str("#define TBX ").dec(s[space.TBX]).str("\n#define TBY ").dec(s[space.TBY]).
		str("\n#define TBZ ").dec(s[space.TBZ]).str("\n")
	w.str("#define IDX(x,y,z) (((z)+").dec(st.Order).str(")*((NY)+").dec(2 * st.Order).
		str(")*((NX)+").dec(2 * st.Order).str(") + ((y)+").dec(st.Order).
		str(")*((NX)+").dec(2 * st.Order).str(") + ((x)+").dec(st.Order).str("))\n\n")

	if k.UsesConstant {
		w.str("__constant__ double c_coeff[").dec(st.Coeffs).str("];\n\n")
	}

	// Kernel signature: one pointer per I/O array.
	w.str("__global__ void __launch_bounds__(").dec(k.ThreadsPerBlock).str(")\n").str(st.Name).str("_kernel(")
	for i := 0; i < st.Inputs; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		w.str("const double* __restrict__ in").dec(i)
	}
	for i := 0; i < st.Outputs; i++ {
		if st.Inputs+i > 0 {
			b.WriteString(", ")
		}
		w.str("double* __restrict__ out").dec(i)
	}
	b.WriteString(") {\n")

	if k.UsesShared {
		w.str("  extern __shared__ double smem[]; // ").dec(k.SharedPerBlock).str("B staged tile + halo\n")
	}

	// Global thread coordinates.
	b.WriteString("  const int tx = blockIdx.x * TBX + threadIdx.x;\n")
	b.WriteString("  const int ty = blockIdx.y * TBY + threadIdx.y;\n")
	if k.Streaming {
		w.str("  // 2.5-D streaming along ").str(dimName(k.SDim)).str(": ").dec(k.SBTiles).
			str(" concurrent tiles of ").dec(k.TileLen).str(" points\n")
		w.str("  const int tile = blockIdx.z;           // concurrent-streaming tile (SB=").dec(k.SBTiles).str(")\n")
		w.str("  const int tile_lo = tile * ").dec(k.TileLen).str(";\n")
	} else {
		b.WriteString("  const int tz = blockIdx.z * TBZ + threadIdx.z;\n")
	}
	b.WriteString("\n")

	emitMergeLoops(w, k)
	b.WriteString("}\n")
}

// cudaText appends kernel source to a buffer. Its methods chain, so one
// statement writes one emitted line, and render numbers with strconv exactly
// as fmt's %d, %+d and %g verbs do.
type cudaText struct{ b *bytes.Buffer }

func (w cudaText) str(v string) cudaText {
	w.b.WriteString(v)
	return w
}

// dec writes v as %d does.
func (w cudaText) dec(v int) cudaText {
	w.b.Write(strconv.AppendInt(w.b.AvailableBuffer(), int64(v), 10))
	return w
}

// signed writes v as %+d does.
func (w cudaText) signed(v int) cudaText {
	if v >= 0 {
		w.b.WriteByte('+')
	}
	return w.dec(v)
}

// float writes v as %g does.
func (w cudaText) float(v float64) cudaText {
	w.b.Write(strconv.AppendFloat(w.b.AvailableBuffer(), v, 'g', -1, 64))
	return w
}

func dimName(d int) string {
	switch d {
	case 1:
		return "x"
	case 2:
		return "y"
	case 3:
		return "z"
	}
	return "?"
}

// emitMergeLoops renders the cyclic/adjacent merge structure and the fully
// unrolled tap accumulation.
func emitMergeLoops(w cudaText, k *Kernel) {
	st := k.Stencil

	// The deepest nesting is the streaming loop, three cyclic and three
	// adjacent loops, two spaces each on top of the body's two.
	const indents = "                "
	depth := 2
	indent := func() string { return indents[:depth] }
	if k.Streaming {
		w.str(indent()).str("for (int it = 0; it < ").dec(k.IterationsPerBlock).str("; ++it) { // serial streaming steps\n")
		depth += 2
		if k.Prefetch {
			w.str(indent()).str("// prefetch: next-plane loads issued before the current FMAs retire\n")
			w.str(indent()).str("double pf[").dec(starArrays(st) * 2).str("];\n")
		}
	}
	// Cyclic merge loops (unrolled by the generator).
	for d, cm := range [3]int{k.CycX, k.CycY, k.CycZ} {
		if cm > 1 {
			n := dimName(d + 1)
			w.str(indent()).str("#pragma unroll\n").str(indent()).str("for (int c").str(n).str(" = 0; c").str(n).
				str(" < ").dec(cm).str("; ++c").str(n).str(") { // cyclic merge\n")
			depth += 2
		}
	}
	// Adjacent (unroll x block-merge) loops.
	for d, a := range [3]int{k.AdjX, k.AdjY, k.AdjZ} {
		if a > 1 {
			n := dimName(d + 1)
			w.str(indent()).str("#pragma unroll ").dec(a).str("\n").str(indent()).str("for (int u").str(n).
				str(" = 0; u").str(n).str(" < ").dec(a).str("; ++u").str(n).str(") {\n")
			depth += 2
		}
	}

	if k.UsesShared {
		w.str(indent()).str("// cooperative tile staging\n").str(indent()).str("__syncthreads();\n")
	}

	// Tap accumulation (shown per output array; retiming reorders the
	// accumulation into homogenized sub-sums).
	if k.Retiming {
		w.str(indent()).str("// retiming: accumulation split into ").dec(st.Order + 1).str(" homogenized sub-computations\n")
	}
	w.str(indent()).str("double acc = 0.0;\n")
	shown := min(len(st.Taps), 6)
	for i, t := range st.Taps[:shown] {
		w.str(indent()).str("acc += ")
		if k.UsesConstant {
			w.str("c_coeff[").dec(i % max(1, st.Coeffs)).str("]")
		} else {
			w.float(t.Coeff)
		}
		if k.UsesShared && i > 0 {
			w.str(" * smem[SIDX(").signed(t.DX).str(",").signed(t.DY).str(",").signed(t.DZ).str(")];\n")
		} else {
			w.str(" * in").dec(t.Array).str("[IDX(x").signed(t.DX).str(", y").signed(t.DY).
				str(", z").signed(t.DZ).str(")];\n")
		}
	}
	if len(st.Taps) > shown {
		w.str(indent()).str("/* ... ").dec(len(st.Taps) - shown).str(" more taps elided ... */\n")
	}
	for o := 0; o < st.Outputs; o++ {
		w.str(indent()).str("out").dec(o).str("[IDX(x, y, z)] = acc * ").float(1.0 + 0.5*float64(o)).str(";\n")
	}

	// Close all opened loops.
	for depth > 2 {
		depth -= 2
		w.str(indent()).str("}\n")
	}
}
