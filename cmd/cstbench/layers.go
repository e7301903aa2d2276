package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
	"repro/internal/store"
)

// The daemon composes its CPU layers internally, out of reach of a tracer
// outside the program. The traced run therefore also sends the spec list
// through the public functions the registry calls — harness.NewFixture,
// harness.PrepareCampaign with Wrap set to campaign.Gate, and
// CampaignRun.Execute — with probes around the objective chain. Campaign
// results are deterministic, so this pass must reproduce the daemon's
// canonical results byte for byte, and the benchmark checks that it does.

type parentKey struct{}

// simProbe measures exactly as (*sim.Simulator).Run does — kernel.Build, then
// RunKernel — and records a span around each.
type simProbe struct {
	sim    *sim.Simulator
	tr     *tracer
	run    string
	parent int64 // used when the call's context names no parent span
}

func (p *simProbe) Space() *space.Space                      { return p.sim.Space() }
func (p *simProbe) Architecture() *gpu.Arch                  { return p.sim.Arch }
func (p *simProbe) Unwrap() sim.Objective                    { return p.sim }
func (p *simProbe) Run(s space.Setting) (*sim.Result, error) { return p.execute(p.parent, s) }

func (p *simProbe) Measure(s space.Setting) (float64, error) {
	return p.MeasureCtx(context.Background(), s)
}

func (p *simProbe) MeasureCtx(ctx context.Context, s space.Setting) (float64, error) {
	parent, ok := ctx.Value(parentKey{}).(int64)
	if !ok {
		parent = p.parent
	}
	r, err := p.execute(parent, s)
	if err != nil {
		return 0, err
	}
	return r.TimeMS, nil
}

func (p *simProbe) execute(parent int64, s space.Setting) (*sim.Result, error) {
	t0 := time.Now()
	k, err := kernel.Build(p.sim.Sp, s, p.sim.Arch)
	t1 := time.Now()
	p.tr.add(span{Name: "kernel.build", Run: p.run, Parent: parent, Err: err != nil}, t0, t1)
	if err != nil {
		return nil, err
	}
	res := p.sim.RunKernel(k)
	p.tr.add(span{Name: "sim.run_kernel", Run: p.run, Parent: parent}, t1, time.Now())
	return res, nil
}

// gateProbe records a span around each measurement that passes the
// weighted-fair gate; the span's self time is the wait for a slot.
type gateProbe struct {
	gate   sim.Objective // campaign.Gate around a simProbe
	tr     *tracer
	run    string
	parent int64
}

func (g *gateProbe) Space() *space.Space     { return g.gate.Space() }
func (g *gateProbe) Architecture() *gpu.Arch { return sim.ArchOf(g.gate) }
func (g *gateProbe) Unwrap() sim.Objective   { return g.gate }

func (g *gateProbe) Run(s space.Setting) (*sim.Result, error) {
	if r, ok := g.gate.(engine.Runner); ok {
		return r.Run(s)
	}
	return nil, engine.ErrNoRunner
}

func (g *gateProbe) Measure(s space.Setting) (float64, error) {
	return g.MeasureCtx(context.Background(), s)
}

func (g *gateProbe) MeasureCtx(ctx context.Context, s space.Setting) (float64, error) {
	id := g.tr.id()
	start := time.Now()
	ms, err := g.gate.(engine.CtxObjective).MeasureCtx(context.WithValue(ctx, parentKey{}, id), s)
	g.tr.add(span{ID: id, Name: "campaign.gate", Run: g.run, Parent: g.parent, Err: err != nil}, start, time.Now())
	return ms, err
}

// layerRun is what the traced pass keeps from one run besides its result.
type layerRun struct {
	stats engine.Stats
	spans []engine.Span
}

// layers is the traced pass over the registry's building blocks.
type layers struct {
	root    string
	disk    *disk
	tr      *tracer
	phase   int64
	sched   *campaign.Scheduler
	store   *store.Store // daemon-warm only
	budgetS float64

	mu       sync.Mutex
	fixtures map[string]*fixtureOnce
	runs     []layerRun
}

type fixtureOnce struct {
	once sync.Once
	fx   *harness.Fixture
	err  error
}

func newLayers(root string, tr *tracer, phase int64, budgetS float64) *layers {
	return &layers{
		root: root, disk: &disk{root: root, tr: tr, phase: phase}, tr: tr, phase: phase,
		sched: campaign.NewScheduler(2), budgetS: budgetS,
		fixtures: map[string]*fixtureOnce{},
	}
}

// fixture builds, or reuses, the fixture for r as the registry does: one per
// (stencil, arch, dataset size, seed).
func (l *layers) fixture(r run, runID string, parent int64) (*harness.Fixture, error) {
	key := fmt.Sprintf("%s/%s/%d/%d", r.Stencil, r.Arch, datasetSize, r.Seed)
	l.mu.Lock()
	e := l.fixtures[key]
	if e == nil {
		e = &fixtureOnce{}
		l.fixtures[key] = e
	}
	l.mu.Unlock()
	e.once.Do(func() {
		st := stencil.ByName(r.Stencil)
		arch, err := gpu.ByName(r.Arch)
		if st == nil || err != nil {
			e.err = fmt.Errorf("unknown stencil %q or arch %q", r.Stencil, r.Arch)
			return
		}
		start := time.Now()
		e.fx, e.err = harness.NewFixture(st, arch, datasetSize, r.Seed)
		l.tr.add(span{Name: "dataset.fixture", Run: runID, Parent: parent, Err: e.err != nil}, start, time.Now())
	})
	return e.fx, e.err
}

// campaign runs one spec the way the registry's runner does.
func (l *layers) campaign(r run) result {
	res := result{Run: r}
	runID := fmt.Sprintf("r%06d", r.Index+1)
	id := l.tr.id()
	start := time.Now()
	var lr layerRun
	res.Err = l.execute(r, runID, id, &res, &lr)
	end := time.Now()
	res.Latency = end.Sub(start).Seconds()
	l.tr.add(span{ID: id, Name: "layers.campaign", Run: runID, Parent: l.phase, Err: res.Err != nil}, start, end)
	l.mu.Lock()
	l.runs = append(l.runs, lr)
	l.mu.Unlock()
	return res
}

func (l *layers) execute(r run, runID string, id int64, res *result, lr *layerRun) error {
	fx, err := l.fixture(r, runID, id)
	if err != nil {
		return err
	}
	dir := filepath.Join(l.root, runID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	weight := r.Weight
	if weight <= 0 {
		weight = 1
	}
	cfg := harness.CampaignConfig{
		Method: r.Method, BudgetS: l.budgetS, Seed: r.Seed,
		JournalPath: filepath.Join(dir, "journal.wal"), FS: l.disk,
		Wrap: func(sim.Objective) sim.Objective {
			inner := &simProbe{sim: fx.Sim, tr: l.tr, run: runID, parent: id}
			return &gateProbe{gate: campaign.Gate(ctx, l.sched, r.Tenant, weight)(inner), tr: l.tr, run: runID, parent: id}
		},
	}
	if l.store != nil {
		cfg.Store = l.store
		var keys []string
		if r.WarmStart > 0 {
			keys = harness.ResolveWarmKeys(l.store, fx, r.WarmStart)
		}
		cfg.WarmStart = harness.ParseWarmKeys(fx.Space, keys)
	}
	t0 := time.Now()
	cr, err := harness.PrepareCampaign(fx, cfg)
	t1 := time.Now()
	l.tr.add(span{Name: "campaign.prepare", Run: runID, Parent: id, Err: err != nil}, t0, t1)
	if err != nil {
		return err
	}
	out, err := cr.Execute(ctx)
	l.tr.add(span{Name: "campaign.execute", Run: runID, Parent: id, Err: err != nil}, t1, time.Now())
	_ = cr.Close() // every append was synced before it returned
	if err != nil {
		return err
	}
	if l.store != nil {
		_ = l.store.Flush() // as the registry does; the store is a cache, so a failed flush fails nothing
	}
	res.State, res.Found, res.BestMS, res.Canonical = campaign.StateCompleted, out.Found, out.BestMS, out.Canonical()
	if out.Found {
		res.BestKey = out.Best.Key()
	}
	res.StoreHits, res.StoreMiss = out.Stats.StoreHits, out.Stats.StoreMisses
	lr.stats, lr.spans = cr.Engine().Stats(), cr.Engine().Spans()
	return nil
}
