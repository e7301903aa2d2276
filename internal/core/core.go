// Package core is csTuner itself: the scalable auto-tuning pipeline of
// Sec. IV that wires together the performance dataset, statistic-based
// parameter grouping, PCC metric combination, PMNF-guided search-space
// sampling, and the iterative per-group genetic search with approximation.
//
// The pipeline observes the GPU only through sim.Objective, so it tunes the
// simulator here and would tune real hardware identically.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/ga"
	"repro/internal/gpu"
	"repro/internal/grouping"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/pmnf"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
)

// Config bundles the pipeline's knobs; DefaultConfig mirrors the paper's
// evaluation setup (Sec. V-A2).
type Config struct {
	// DatasetSize is the number of randomly sampled settings measured for
	// the stencil dataset (paper: 128).
	DatasetSize int
	// MaxGroupSize caps Algorithm 1 group growth (PMNF term width).
	MaxGroupSize int
	// Sampling holds the ratio (paper: 10%) and candidate pool size.
	Sampling sampling.Config
	// GA holds the genetic-algorithm options (paper: 2×16, 0.8, 0.005).
	GA ga.Options
	// Seed drives every random choice in the pipeline.
	Seed int64
	// EmitKernels enables CUDA source generation for the sampled settings
	// (the codegen stage of the overhead breakdown). Requires the objective
	// (or a wrapper in its chain) to expose sim.ArchProvider so the target
	// arch is known.
	EmitKernels bool
	// WarmStart lists prior best settings (typically a cross-campaign result
	// store's bests, possibly transferred from another architecture) to seed
	// the search with: each valid entry is injected into the sampled space,
	// measured as an anchor, and fed to the GA's initial population. Invalid
	// or wrong-arity entries are skipped. Empty leaves the pipeline
	// byte-identical to the cold path.
	WarmStart []space.Setting
}

// numMetricCollections bounds Algorithm 2's collection count (paper: 4).
const numMetricCollections = 4

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		DatasetSize:  128,
		MaxGroupSize: 4,
		Sampling:     sampling.DefaultConfig(),
		GA:           ga.DefaultOptions(),
		Seed:         1,
		EmitKernels:  true,
	}
}

// Overhead is the wall-clock breakdown of the pre-processing stages
// (Fig. 12): parameter grouping, search-space sampling (metric combination +
// PMNF fitting + the candidate pool's draw + filtering), and code
// generation. Each field is its stage's own elapsed time, read through the
// engine's clock on the goroutine that ran the stage. The pool draw runs
// beside grouping and fitting, and codegen beside the search, so the
// stage times may add up to more than the tune's wall time.
type Overhead struct {
	Grouping time.Duration
	Sampling time.Duration
	Codegen  time.Duration
}

// Total returns the summed pre-processing time.
func (o Overhead) Total() time.Duration { return o.Grouping + o.Sampling + o.Codegen }

// Report is the outcome of one Tune run.
type Report struct {
	Best   space.Setting
	BestMS float64

	Groups          [][]int
	SelectedMetrics []metrics.Selected
	Models          map[string]*pmnf.Model
	SampledSize     int
	Overhead        Overhead
	Evaluations     int // distinct settings measured during the search
	GroupOrder      []int
	GeneratedCUDA   int // kernels emitted during codegen

	// Engine is the evaluation engine's counter snapshot at the end of the
	// run: evaluations, cache hits, invalid settings, budget trips, virtual
	// seconds spent.
	Engine engine.Stats
	// Spans are the engine's aggregated per-stage timing spans (dataset,
	// grouping, sampling, codegen, search).
	Spans []engine.Span
}

// Tune runs the full csTuner pipeline against the objective.
//
// Every measurement goes through the evaluation engine: when obj already is
// an *engine.Engine (the harness wraps objectives in budgeted engines) it is
// used as-is so cache, budget and stats are shared across layers; otherwise
// obj is wrapped in a fresh engine.
//
// ds is the offline stencil dataset (metric collection is a one-time offline
// step, paper Sec. V-F); pass nil to have Tune collect cfg.DatasetSize
// samples through the objective's dataset.Runner surface — the simulator and
// the GEMM/CPU/temporal workloads all self-collect. stop is polled between
// evaluations — the harness uses it to enforce iso-time budgets; pass nil
// for no budget.
func Tune(obj sim.Objective, ds *dataset.Dataset, cfg Config, stop func() bool) (*Report, error) {
	return TuneCtx(context.Background(), obj, ds, cfg, stop)
}

// TuneCtx is Tune under a run-level context: cancelling ctx (or passing one
// with a deadline) stops the tuning session promptly — cancellation is
// observed between measurements and at every stage boundary. A cancelled run
// returns its partial Report (pipeline artefacts built so far, the best
// setting known from the engine or the offline dataset, and the engine's
// counter snapshot) alongside ctx's error; only a run cancelled before any
// usable state exists returns a nil Report.
func TuneCtx(ctx context.Context, obj sim.Objective, ds *dataset.Dataset, cfg Config, stop func() bool) (*Report, error) {
	stop = engine.Stop(ctx, stop)
	eng, ok := obj.(*engine.Engine)
	if !ok {
		eng = engine.New(obj)
	}
	sp := eng.Space()
	rng := stats.NewRand(cfg.Seed)
	statsBefore := eng.Stats()
	started := eng.Now()

	if ds == nil {
		if !eng.CanCollect() {
			return nil, errors.New("core: no dataset given and objective cannot collect one")
		}
		stopSpan := eng.Time("dataset")
		var err error
		// Collected through the engine with the pipeline rng, which
		// continues into the pool draw; the results pre-warm the
		// measurement cache.
		ds, err = dataset.Collect(eng, rng, cfg.DatasetSize)
		stopSpan()
		if err != nil {
			return nil, fmt.Errorf("core: dataset collection: %w", err)
		}
	}
	if len(ds.Samples) < 8 {
		return nil, fmt.Errorf("core: dataset too small (%d samples)", len(ds.Samples))
	}
	for i := range ds.Samples {
		if len(ds.Samples[i].Setting) != sp.N() {
			return nil, fmt.Errorf("core: dataset sample %d has %d parameters, space has %d — wrong dataset for this space?",
				i, len(ds.Samples[i].Setting), sp.N())
		}
	}

	rep := &Report{Models: map[string]*pmnf.Model{}}
	if err := ctx.Err(); err != nil {
		return partial(rep, eng, ds, statsBefore, started), err
	}

	// ---- Pre-processing: the candidate pool, drawn aside (Sec. IV-D) -----
	// The pool needs only the dataset, and the pipeline rng draws nothing
	// else from here on, so a second goroutine draws it while this one
	// groups the parameters and fits the models. It owns the rng until the
	// join; the deferred Wait joins it on every return path.
	var (
		draw     sync.WaitGroup
		pool     *space.Coded
		drawErr  error
		drawTime time.Duration
	)
	draw.Add(1)
	go func() {
		defer draw.Done()
		t0 := eng.Now()
		pool, drawErr = sampling.Draw(ds, sp, rng, cfg.Sampling)
		drawTime = eng.Now().Sub(t0)
	}()
	defer draw.Wait()

	// ---- Pre-processing: parameter grouping (Sec. IV-C) -----------------
	t0 := eng.Now()
	pairs := grouping.PairCVs(ds, sp)
	groups := grouping.Groups(pairs, cfg.MaxGroupSize)
	if err := grouping.ValidateN(groups, sp.N()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rep.Groups = groups
	rep.Overhead.Grouping = eng.Now().Sub(t0)
	eng.ObserveSpan("grouping", rep.Overhead.Grouping)
	if err := ctx.Err(); err != nil {
		return partial(rep, eng, ds, statsBefore, started), err
	}

	// ---- Pre-processing: search-space sampling (Sec. IV-D) --------------
	// The stage's time is this goroutine's metric combination, fitting and
	// scoring plus the draw's own time on its goroutine, not the wait for it.
	t0 = eng.Now()
	names := metricNames(ds)
	mpairs, err := metrics.PairPCCs(ds, names)
	if err != nil {
		return nil, fmt.Errorf("core: metric PCCs: %w", err)
	}
	collections := metrics.Combine(mpairs, numMetricCollections)
	selected, err := metrics.Select(ds, collections)
	if err != nil {
		return nil, fmt.Errorf("core: metric selection: %w", err)
	}
	rep.SelectedMetrics = selected

	cols := make([][]float64, len(selected))
	for k, sel := range selected {
		if cols[k], err = ds.MetricColumn(sel.Name); err != nil {
			return nil, err
		}
	}
	models, err := pmnf.Fit(ds, groups, cols)
	if err != nil {
		var te *pmnf.TargetError
		if errors.As(err, &te) {
			return nil, fmt.Errorf("core: PMNF fit for %s: %w", selected[te.Target].Name, te.Err)
		}
		return nil, fmt.Errorf("core: PMNF fit: %w", err)
	}
	for k, sel := range selected {
		rep.Models[sel.Name] = models[k]
	}
	fitTime := eng.Now().Sub(t0)
	draw.Wait()
	if drawErr != nil {
		return nil, fmt.Errorf("core: sampling: %w", drawErr)
	}

	// The candidate pool is not filtered by the implicit resource
	// constraints. Sampled-but-unbuildable settings still contribute
	// per-group value tuples that recombine into valid, fast compositions
	// during the group search; measured ablations show pool-level
	// filtering costs final quality while saving only constraint checks the
	// search rejects for free anyway (Sec. IV-B's check happens before code
	// generation and measurement, which this pipeline honours at the
	// kernel.Build boundary).
	t0 = eng.Now()
	sampled, err := sampling.Score(pool, groups, selected, rep.Models, cfg.Sampling)
	if err != nil {
		return nil, fmt.Errorf("core: sampling: %w", err)
	}
	if warm := validWarmStart(sp, cfg.WarmStart); len(warm) > 0 {
		// Warm-start injection: a prior campaign's bests join the sampled
		// space so the group search can reach (and recombine) them even when
		// the model filter would have dropped them.
		sampled.Include(warm)
		eng.AddWarmStartSeeds(len(warm))
	}
	rep.SampledSize = len(sampled.Settings)
	rep.Overhead.Sampling = fitTime + drawTime + eng.Now().Sub(t0)
	eng.ObserveSpan("sampling", rep.Overhead.Sampling)
	if err := ctx.Err(); err != nil {
		return partial(rep, eng, ds, statsBefore, started), err
	}

	// ---- Pre-processing: code generation, aside ---------------------------
	// The search reads nothing codegen makes, so a second goroutine builds
	// and emits the sampled kernels while this one searches; the deferred
	// Wait joins it on every return path. The engine forwards
	// sim.ArchProvider from the wrapped objective, so codegen reaches the
	// target arch through any wrapper chain.
	var (
		gen       sync.WaitGroup
		arch      *gpu.Arch
		generated int
		genTime   time.Duration
	)
	defer gen.Wait()
	if cfg.EmitKernels && sp.Stencil != nil {
		arch = sim.ArchOf(eng)
	}
	if arch != nil {
		gen.Add(1)
		go func() {
			defer gen.Done()
			t0 := eng.Now()
			generated = emitKernels(sp, arch, sampled.Settings)
			genTime = eng.Now().Sub(t0)
		}()
	}

	// ---- Evolutionary search (Sec. IV-E) ---------------------------------
	t0 = eng.Now()
	best, bestMS, err := search(ctx, eng, sampled, ds, cfg, rep, stop)
	searchTime := eng.Now().Sub(t0)
	gen.Wait()
	if arch != nil {
		rep.GeneratedCUDA, rep.Overhead.Codegen = generated, genTime
		eng.ObserveSpan("codegen", genTime)
	}
	eng.ObserveSpan("search", searchTime)
	if err != nil {
		return nil, err
	}
	rep.Best, rep.BestMS = best, bestMS
	err = ctx.Err()
	if err != nil {
		// The run was cut during the search: mark the cancellation point as a
		// span so resumed runs can account the wall-time this partial run
		// actually covered.
		eng.ObserveSpan("canceled", eng.Now().Sub(started))
	}
	rep.Engine = eng.Stats()
	rep.Evaluations = rep.Engine.Evaluations - statsBefore.Evaluations
	rep.Spans = eng.Spans()
	return rep, err
}

// partial finalizes a report for a run cut short by context cancellation:
// the best known result so far (the engine's best measurement, else the
// offline dataset's best sample), the engine counter snapshot, and the
// timing spans — including a "canceled" span marking how far into the run
// the cut landed, so resumed runs account the partial run's wall-time. The
// report is well-formed; only Best may be nil when the run was cancelled
// before anything was measured.
func partial(rep *Report, eng *engine.Engine, ds *dataset.Dataset, statsBefore engine.Stats, started time.Time) *Report {
	if s, ms, ok := eng.Best(); ok {
		rep.Best, rep.BestMS = s, ms
	} else if ds != nil && len(ds.Samples) > 0 {
		b := ds.Best()
		rep.Best, rep.BestMS = b.Setting.Clone(), b.TimeMS
	}
	eng.ObserveSpan("canceled", eng.Now().Sub(started))
	rep.Engine = eng.Stats()
	rep.Evaluations = rep.Engine.Evaluations - statsBefore.Evaluations
	rep.Spans = eng.Spans()
	return rep
}

// emitKernels builds the kernel of every setting and emits its CUDA
// source, and returns how many it emitted. Settings that fail the implicit
// resource constraints are dropped at build time.
func emitKernels(sp *space.Space, arch *gpu.Arch, settings []space.Setting) int {
	n := 0
	for _, set := range settings {
		k, err := kernel.Build(sp, set, arch)
		if err != nil {
			continue
		}
		_ = k.EmitCUDA()
		n++
	}
	return n
}

// metricNames lists the metric keys present in the dataset's first sample,
// sorted for determinism.
func metricNames(ds *dataset.Dataset) []string {
	names := make([]string, 0, len(ds.Samples[0].Metrics))
	for n := range ds.Samples[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// search performs iterative per-group tuning: groups are visited in
// descending re-indexed-range order (bigger ranges carry more performance
// head-room); each group is tuned by the customized GA — degenerating to
// exhaustive search for small ranges — while the remaining parameters stay
// fixed, then frozen at its winner.
//
// The engine carries the measurement cache, budget accounting and global
// best-tracking, so search keeps no state of its own: the GA's
// sub-populations measure straight through the engine, on this goroutine.
func search(ctx context.Context, eng *engine.Engine, sampled *sampling.Sampled, ds *dataset.Dataset,
	cfg Config, rep *Report, stop func() bool) (space.Setting, float64, error) {

	sp := eng.Space()

	// Starting point: the sampled space's best-predicted setting, or the
	// dataset's best measured setting if measuring the former fails.
	current, err := sampled.Best()
	if err != nil {
		return nil, 0, err
	}
	dsBest := ds.Best()

	measure := eng.Probe(ctx, stop)
	// Best-so-far: the engine tracks every measured setting; the dataset's
	// best sample is the floor (it may never be re-measured by the search).
	best := func() (space.Setting, float64) {
		if s, ms, ok := eng.Best(); ok && ms < dsBest.TimeMS {
			return s, ms
		}
		return dsBest.Setting.Clone(), dsBest.TimeMS
	}

	// Anchor measurements: the canonical untuned baseline (a tuner must
	// never report worse than "do nothing") and the sampler's best
	// prediction, which becomes the search context.
	if def := sp.Default(); sp.Validate(def) == nil {
		measure(def)
	}
	if ms := measure(current); math.IsInf(ms, 1) {
		current, _ = best()
	}
	// Warm anchors: a prior campaign's bests are measured up front — against
	// a shared result store these are free hits — so the search starts from
	// the transferred floor and the GA seeds below compete with live context.
	warm := validWarmStart(sp, cfg.WarmStart)
	for _, w := range warm {
		measure(w)
	}
	if len(warm) > 0 {
		current, _ = best()
	}

	order := groupOrder(sampled)
	rep.GroupOrder = order
	gaOpt := cfg.GA

	// Iterative auto-tuning over parameter groups. After the first pass,
	// further refinement passes re-tune each group in the context the other
	// groups settled into; earlier probes are memoized by the engine's
	// cache, so a pass that discovers nothing new is nearly free. The loop
	// ends when a full pass stops improving, the budget stops us, or the
	// safety cap is hit.
	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		improvedPass := false
		for _, gi := range order {
			if stop() {
				bestSet, bestMS := best()
				return bestSet, bestMS, nil
			}
			values := sampled.Values[gi]
			if len(values) <= 1 {
				continue
			}
			gaOpt.Seed = cfg.Seed + int64(gi)*104729 + int64(pass)*15485863
			gaOpt.Seeds = warmTupleSeeds(sampled, warm, gi)
			_, before := best()
			res := ga.Minimize(len(values), func(tupleIdx int) float64 {
				cand := current.Clone()
				if err := sampled.Apply(cand, gi, tupleIdx); err != nil {
					return math.Inf(1)
				}
				if sp.Validate(cand) != nil {
					return math.Inf(1)
				}
				return measure(cand)
			}, gaOpt)
			if res.BestIndex >= 0 && !math.IsInf(res.BestValue, 1) {
				if err := sampled.Apply(current, gi, res.BestIndex); err != nil {
					return nil, 0, err
				}
			}
			if _, now := best(); now < before {
				improvedPass = true
			}
		}
		// Adopt the global best as the context for the next pass: the
		// per-group winners may not compose, but the best measured full
		// setting is always a valid composition.
		current, _ = best()
		if !improvedPass {
			break
		}
	}
	bestSet, bestMS := best()
	return bestSet, bestMS, nil
}

// validWarmStart filters warm-start settings down to the ones this space
// accepts (right arity, passes validation), cloned, in order.
func validWarmStart(sp *space.Space, warm []space.Setting) []space.Setting {
	if len(warm) == 0 {
		return nil
	}
	out := make([]space.Setting, 0, len(warm))
	for _, w := range warm {
		if len(w) != sp.N() || sp.Validate(w) != nil {
			continue
		}
		out = append(out, w.Clone())
	}
	return out
}

// warmTupleSeeds maps warm settings onto group gi's re-indexed gene range:
// the GA's initial-population seeds. Settings whose tuple is absent from
// the sampled space (possible only when injection was skipped) drop out,
// and duplicates collapse in first-seen order.
func warmTupleSeeds(sampled *sampling.Sampled, warm []space.Setting, gi int) []int {
	if len(warm) == 0 {
		return nil
	}
	var seeds []int
	seen := map[int]struct{}{}
	for _, w := range warm {
		idx := sampled.TupleIndex(w, gi)
		if idx < 0 {
			continue
		}
		if _, dup := seen[idx]; dup {
			continue
		}
		seen[idx] = struct{}{}
		seeds = append(seeds, idx)
	}
	return seeds
}

// groupOrder returns group indices sorted by descending value-range size.
func groupOrder(sampled *sampling.Sampled) []int {
	order := make([]int, len(sampled.Groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(sampled.Values[order[a]]) > len(sampled.Values[order[b]])
	})
	return order
}
