// Command cstuner auto-tunes one stencil on a simulated GPU with the full
// csTuner pipeline and prints the chosen parameter setting, the pipeline
// diagnostics, and (optionally) the generated CUDA kernel.
//
// Usage:
//
//	cstuner -stencil helmholtz -arch a100
//	cstuner -stencil rhs4center -arch v100 -ratio 0.2 -budget 60 -emit
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/grouping"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
)

func main() {
	var (
		name    = flag.String("stencil", "j3d7pt", "stencil to tune (see Table III)")
		archStr = flag.String("arch", "a100", "GPU architecture: a100 or v100")
		ratio   = flag.Float64("ratio", 0.10, "search-space sampling ratio")
		dsSize  = flag.Int("dataset", 128, "offline dataset size")
		budget  = flag.Float64("budget", 0, "virtual tuning budget in seconds (0 = unlimited)")
		seed    = flag.Int64("seed", 1, "random seed")
		emit    = flag.Bool("emit", false, "print the tuned kernel's CUDA source")
		dsOut   = flag.String("dataset-out", "", "write the collected stencil dataset to this JSON file")
		dsIn    = flag.String("dataset-in", "", "reuse an offline stencil dataset instead of collecting one")
	)
	flag.Parse()

	st := stencil.ByName(*name)
	if st == nil {
		fail(fmt.Errorf("unknown stencil %q; available: %v", *name, names()))
	}
	arch, err := gpu.ByName(*archStr)
	if err != nil {
		fail(err)
	}
	sp, err := space.New(st)
	if err != nil {
		fail(err)
	}
	simulator := sim.New(sp, arch)

	cfg := core.DefaultConfig()
	cfg.DatasetSize = *dsSize
	cfg.Sampling.Ratio = *ratio
	cfg.Seed = *seed

	// Offline stencil dataset: collected fresh, loaded from disk, or both
	// (collect + persist for later reuse; paper Sec. V-F treats metric
	// collection as a one-time offline step).
	var ds *dataset.Dataset
	if *dsIn != "" {
		f, err := os.Open(*dsIn)
		if err != nil {
			fail(err)
		}
		ds, err = dataset.Load(f)
		_ = f.Close() // read-only handle; Load's error is the one that matters
		if err != nil {
			fail(err)
		}
		if ds.Stencil != st.Name {
			fail(fmt.Errorf("dataset is for stencil %q, tuning %q", ds.Stencil, st.Name))
		}
	} else {
		ds, err = dataset.Collect(simulator, stats.NewRand(*seed), *dsSize)
		if err != nil {
			fail(err)
		}
	}
	if *dsOut != "" {
		f, err := os.Create(*dsOut)
		if err != nil {
			fail(err)
		}
		if err := ds.Save(f); err != nil {
			_ = f.Close() // already failing; Save's error wins
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	var obj sim.Objective = simulator
	stop := func() bool { return false }
	var meter *engine.Engine
	if *budget > 0 {
		meter = engine.New(simulator, engine.WithBudget(*budget))
		obj = meter
		stop = meter.Exhausted
	}

	rep, err := core.Tune(obj, ds, cfg, stop)
	if err != nil {
		fail(err)
	}

	fmt.Printf("stencil       %s on %s\n", st, arch.Name)
	fmt.Printf("groups        %s\n", grouping.Format(rep.Groups))
	fmt.Printf("metrics       ")
	for i, m := range rep.SelectedMetrics {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s (r=%.2f)", m.Name, m.TimePCC)
	}
	fmt.Println()
	fmt.Printf("sampled space %d settings, %d kernels generated\n", rep.SampledSize, rep.GeneratedCUDA)
	fmt.Printf("overhead      grouping=%v sampling=%v codegen=%v\n",
		rep.Overhead.Grouping, rep.Overhead.Sampling, rep.Overhead.Codegen)
	fmt.Printf("evaluations   %d\n", rep.Evaluations)
	if meter != nil {
		fmt.Printf("virtual time  %.1fs of %.1fs budget\n", meter.Stats().SpentS, *budget)
	}
	fmt.Printf("best setting  %s\n", rep.Best)
	fmt.Printf("best time     %.4f ms\n", rep.BestMS)

	if *emit {
		k, err := kernel.Build(sp, rep.Best, arch)
		if err != nil {
			fail(err)
		}
		fmt.Println("\n---- generated CUDA ----")
		fmt.Println(k.EmitCUDA())
	}
}

func names() []string {
	var out []string
	for _, s := range stencil.Suite() {
		out = append(out, s.Name)
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cstuner:", err)
	os.Exit(1)
}
