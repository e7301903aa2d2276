package engine

import "sync"

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

// ResultStore is the store surface the engine consumes; *store.Store
// implements it.
type ResultStore interface {
	// GetBytes probes a composite key rendered into a caller-owned buffer;
	// it must be safe for concurrent use and must not retain the buffer.
	GetBytes(key []byte) (float64, bool)
	// Put publishes a successful measurement under a composite key.
	Put(key string, ms float64)
	// Degraded reports whether the store has fallen back to read-only mode
	// (a sticky write failure): Puts still feed its in-memory index, but
	// nothing persists. The engine counts publishes made in that state
	// (Stats.StorePutDrops) so operators can see the durability gap grow.
	Degraded() bool
}

// WithStore attaches a shared result store. prefix is the campaign's
// composite-key prefix — store.Prefix(archFP, shapeFP) — prepended to every
// setting key, so campaigns on different architectures or stencils never
// alias. A nil store disables the integration.
func WithStore(st ResultStore, prefix string) Option {
	return func(e *Engine) {
		if st == nil {
			e.store, e.storePrefix = nil, ""
			return
		}
		e.store, e.storePrefix = st, prefix
	}
}

// storeScratch sizes the pooled buffers for rendered composite keys: the
// arch+shape prefix (~200 bytes for the built-in models) plus the setting
// key. Longer composite keys grow the pooled buffer — an allocation on the
// first probe, not an error.
const storeScratch = 384

// storeKeyScratch pools composite-key buffers: the probe hands its buffer to
// an interface method, which defeats stack allocation, so reuse across
// probes is what keeps the hot path allocation-free. GetBytes's contract is
// that the buffer is caller-owned (never retained), which makes returning it
// to the pool safe.
var storeKeyScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, storeScratch); return &b },
}

// storeProbe consults the result store for a setting key. Allocation-free
// on the steady-state path: the composite key is rendered into pooled
// scratch and probed via the byte-slice map path.
func (e *Engine) storeProbe(key string) (float64, bool) {
	if e.store == nil {
		return 0, false
	}
	bp := storeKeyScratch.Get().(*[]byte)
	b := append((*bp)[:0], e.storePrefix...)
	b = append(b, key...)
	ms, ok := e.store.GetBytes(b)
	*bp = b[:0]
	storeKeyScratch.Put(bp)
	return ms, ok
}

// storePut is one store publish waiting for the journal sync that covers
// its episode's record.
type storePut struct {
	key string // setting key, without the store prefix
	ms  float64
}

// storePublishLocked pushes one successful episode's measured time to the
// shared store. Called from the accounting section (callers hold e.mu),
// never from an in-flight episode. On a journaled engine a live episode's
// publish waits for the sync that makes its record durable: Put makes it
// visible to every campaign sharing the store at once, and a sibling that
// journaled it as a store hit must never outlive the owner's record in a
// power cut. Replayed episodes publish at once — their records are already
// durable, the merge is min-idempotent, and a resumed campaign should
// backfill a store that was attached after the original run.
func (e *Engine) storePublishLocked(key string, ms float64, replayed bool) {
	if e.store == nil {
		return
	}
	if e.jr != nil && !replayed {
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
		e.storeDrops.Add(1)
	}
}

// AddWarmStartSeeds records that n prior-best settings from the store were
// injected into this run's search (sampling set + GA initial population).
// The pipeline calls it once per tune; it only feeds the stats surface.
func (e *Engine) AddWarmStartSeeds(n int) {
	if n > 0 {
		e.warmSeeds.Add(int64(n))
	}
}
