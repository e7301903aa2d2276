package campaign

import (
	"context"
	"sync"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
)

// Scheduler is the weighted-fair measurement gate: every live measurement a
// campaign makes first acquires one of a bounded number of slots, and slots
// are granted to the waiting tenant with the lowest virtual time — a
// classic weighted-fair-queueing discipline where each granted measurement
// advances the tenant's virtual time by 1/weight. The effect is that
// hundreds of concurrent campaigns interleave at measurement granularity,
// with tenants progressing in proportion to their weights, instead of
// campaigns draining FIFO.
//
// Fairness never touches results: a campaign's measurement outcomes,
// accounting and journal are a pure function of its own spec (the engine's
// determinism guarantee), so the scheduler only decides *when* measurements
// run. Journal replay on resume bypasses the objective entirely and
// therefore never waits on a slot — resumed campaigns re-cover their paid
// prefix at full speed.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	slots   int
	inUse   int
	vtime   map[string]float64 // per-tenant virtual time, monotone
	waiting map[string]int     // tenants with goroutines blocked in Acquire
}

// NewScheduler returns a scheduler with the given number of concurrent
// measurement slots; n < 1 is clamped to 1.
func NewScheduler(slots int) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	s := &Scheduler{slots: slots, vtime: map[string]float64{}, waiting: map[string]int{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Acquire blocks until the tenant is granted a measurement slot or ctx is
// done. weight scales the tenant's share; values <= 0 behave as 1.
func (s *Scheduler) Acquire(ctx context.Context, tenant string, weight float64) error {
	if weight <= 0 {
		weight = 1
	}
	if ctx.Done() != nil {
		// cond.Wait cannot select on ctx, so cancellation broadcasts. The
		// callback holds s.mu, so it cannot land between the loop's ctx.Err
		// check and cond.Wait, where the broadcast would wake nobody.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.cond.Broadcast()
		})
		defer stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.vtime[tenant]; !ok {
		// A newly-arriving tenant starts at the current minimum virtual
		// time, not at zero: otherwise a latecomer would monopolize the
		// slots until it "caught up" with tenants that were simply first.
		s.vtime[tenant] = s.minVTimeLocked()
	}
	s.waiting[tenant]++
	defer func() {
		s.waiting[tenant]--
		if s.waiting[tenant] == 0 {
			delete(s.waiting, tenant)
		}
		// The eligible-tenant frontier may have moved; wake the others.
		s.cond.Broadcast()
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.inUse < s.slots && s.eligibleLocked(tenant) {
			s.inUse++
			s.vtime[tenant] += 1 / weight
			return nil
		}
		s.cond.Wait()
	}
}

// Release returns a slot acquired by Acquire.
func (s *Scheduler) Release() {
	s.mu.Lock()
	s.inUse--
	s.mu.Unlock()
	s.cond.Broadcast()
}

// minVTimeLocked returns the minimum virtual time across known tenants, or
// 0 when none exist. Callers hold s.mu.
func (s *Scheduler) minVTimeLocked() float64 {
	first := true
	min := 0.0
	for _, v := range s.vtime {
		if first || v < min {
			min, first = v, false
		}
	}
	return min
}

// eligibleLocked reports whether tenant holds the minimum virtual time
// among currently-waiting tenants. Ties are eligible together — the slot
// count, not the comparison, bounds concurrency. Callers hold s.mu.
func (s *Scheduler) eligibleLocked(tenant string) bool {
	vt := s.vtime[tenant]
	for other := range s.waiting {
		if other == tenant {
			continue
		}
		if s.vtime[other] < vt {
			return false
		}
	}
	return true
}

// VTimes returns a copy of the per-tenant virtual-time table (diagnostics).
func (s *Scheduler) VTimes() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.vtime))
	for k, v := range s.vtime {
		out[k] = v
	}
	return out
}

// gate wraps a campaign's simulator so every live measurement passes
// through the weighted-fair scheduler. It forwards the optional surfaces
// the engine probes for — context-aware measurement and the architecture
// provider. It offers no metric runs: a campaign's dataset is its
// fixture's, never collected through its engine.
type gate struct {
	inner  sim.Objective
	sched  *Scheduler
	ctx    context.Context
	tenant string
	weight float64
}

// Gate returns a Wrap function (harness.CampaignConfig.Wrap) that routes
// the campaign's live measurements through sched under the tenant's weight.
// ctx is the campaign's run context: a cancelled campaign stops waiting for
// slots immediately.
func Gate(ctx context.Context, sched *Scheduler, tenant string, weight float64) func(sim.Objective) sim.Objective {
	return func(obj sim.Objective) sim.Objective {
		return &gate{inner: obj, sched: sched, ctx: ctx, tenant: tenant, weight: weight}
	}
}

func (g *gate) Space() *space.Space { return g.inner.Space() }

func (g *gate) Measure(s space.Setting) (float64, error) { return g.MeasureCtx(g.ctx, s) }

// MeasureCtx implements engine.CtxObjective so the engine's run context
// reaches both the slot wait and a context-aware inner objective.
func (g *gate) MeasureCtx(ctx context.Context, s space.Setting) (float64, error) {
	if err := g.sched.Acquire(ctx, g.tenant, g.weight); err != nil {
		return 0, err
	}
	defer g.sched.Release()
	if co, ok := g.inner.(engine.CtxObjective); ok {
		return co.MeasureCtx(ctx, s)
	}
	return g.inner.Measure(s)
}

// Architecture forwards the GPU model so codegen survives the gate.
func (g *gate) Architecture() *gpu.Arch {
	if ap, ok := g.inner.(sim.ArchProvider); ok {
		return ap.Architecture()
	}
	return nil
}

var (
	_ sim.Objective       = (*gate)(nil)
	_ sim.ArchProvider    = (*gate)(nil)
	_ engine.CtxObjective = (*gate)(nil)
)
