package engine

import "repro/internal/store"

// Cross-campaign result store integration (DESIGN.md §13). The engine's
// memo cache is per-campaign; the result store (internal/store) is shared
// across every campaign under a registry root and persists across
// processes. WithStore slots it in as a second-level read-through cache on
// the measurement path:
//
//	memo cache → journal replay → store probe → objective
//
// The probe lives inside measureEpisode, *after* journal replay and after
// every sequential gate (context, budget) has already run. That
// placement is what keeps resume deterministic: gates never condition on
// store content (which grows between runs), and a store hit is journaled as
// its own episode class (journal.ClassStore), so a resumed run replays the
// recorded hit instead of re-probing a store that has since changed.
//
// Store hits charge zero budget and do not count as Evaluations — the
// measurement was paid for by whichever campaign published it — but they do
// update best/trajectory and the memo cache, all inside the normal
// accounting section. This engine publishes only from that section — on a
// journaled engine, only once the journal sync covering the episode has
// returned — and other processes' records are only loaded at Open.

// WithStore attaches a shared result store. prefix is the campaign's
// composite-key prefix — store.Prefix(archFP, shapeFP) — prepended to every
// setting key, so campaigns on different architectures or stencils never
// alias. A nil store disables the integration.
func WithStore(st *store.Store, prefix string) Option {
	return func(e *Engine) { e.store, e.storePrefix = st, prefix }
}

// storeScratch sizes storeProbe's stack buffer for rendered composite keys:
// the arch+shape prefix (~200 bytes for the built-in models) plus the
// setting key. Longer composite keys spill the append to the heap — an
// allocation, not an error.
const storeScratch = 384

// storeProbe consults the result store for a setting key. Allocation-free
// on the steady-state path: the composite key is rendered into a stack
// buffer, which GetBytes probes without retaining.
func (e *Engine) storeProbe(key string) (float64, bool) {
	if e.store == nil {
		return 0, false
	}
	var kb [storeScratch]byte
	b := append(kb[:0], e.storePrefix...)
	return e.store.GetBytes(append(b, key...))
}

// storePut is one store publish waiting for the journal sync that covers
// its episode's record.
type storePut struct {
	key string // setting key, without the store prefix
	ms  float64
}

// storePublishLocked pushes one successful episode's measured time to the
// shared store. Called from the accounting section (callers hold e.mu),
// never from an in-flight episode. On a journaled engine every publish,
// replayed or live, waits for the journal's next sync, which covers its
// record: Put makes it visible to every campaign sharing the store at once,
// and a sibling that journaled it as a store hit must never outlive the
// owner's record in a power cut. A replayed record may be no more durable
// than a live one, since OpenFS leaves what it recovered to that sync. So
// a resumed campaign backfills a store attached after the original run
// once its replay is synced.
func (e *Engine) storePublishLocked(key string, ms float64) {
	if e.store == nil {
		return
	}
	if e.jr != nil {
		e.queued = append(e.queued, storePut{key: key, ms: ms})
		return
	}
	e.storePutLocked(key, ms)
}

// storePutLocked publishes one result. Callers hold e.mu.
func (e *Engine) storePutLocked(key string, ms float64) {
	// The store's Put never blocks on I/O longer than a buffered write and
	// never calls back into the engine, so holding e.mu across it is safe:
	// lock order is e.mu → the store's locks, and nothing acquires them in
	// the other order.
	e.store.Put(e.storePrefix+key, ms)
	if e.store.Degraded() {
		// Read-only-degraded store: the index took the record (this run and
		// its neighbors keep their hits), but nothing reached disk.
		e.stats.StorePutDrops++
	}
}

// AddWarmStartSeeds records that n prior-best settings from the store were
// injected into this run's search (sampling set + GA initial population).
// The pipeline calls it once per tune; it only feeds the stats surface.
func (e *Engine) AddWarmStartSeeds(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.WarmStartSeeds += n
}
