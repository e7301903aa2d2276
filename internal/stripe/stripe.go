// Package stripe is the lock-free read-mostly index behind the
// cross-campaign result store (internal/store, DESIGN.md §13), its only
// user: every campaign of a daemon probes one store from its own goroutine.
// A Map is 64 independent shards selected by stats.KeyHash of the key.
//
// Each shard publishes an immutable read map through an atomic pointer. A
// probe loads the pointer and indexes the map: zero locks, zero allocations
// (byte-slice probes use the compiler's m[string(b)] optimization). Writes
// go to a small mutex-guarded dirty overlay; the published snapshot's
// amended flag tells lock-free missers whether the overlay could hold the
// key. Once the overlay reaches half the read map's size it is promoted —
// merged into a fresh immutable map and published — so insertion cost stays
// amortized O(1) and the read path never observes a map being mutated. A
// write to a key the read map already holds promotes at once, so a probe
// never serves a value the overlay has replaced.
//
// Values are published, never mutated in place: a reader may keep a value
// it loaded (for pointer V, the pointee must be treated as immutable).
package stripe

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// shards is the stripe count. 64 shards keep shard-lock contention
// negligible for the campaign goroutines that share one result store while
// the per-shard maps stay large enough to amortize promotion copies.
const shards = 64

// Map is a concurrent string-keyed index whose probes take no lock on the
// fast path. Create one with New.
type Map[V any] struct {
	shards [shards]shard[V]
}

// readMap is one shard's immutable published snapshot.
type readMap[V any] struct {
	m map[string]V
	// amended reports that the shard's dirty overlay may hold keys absent
	// from m, so a lock-free miss is not definitive.
	amended bool
}

type shard[V any] struct {
	read  atomic.Pointer[readMap[V]]
	mu    sync.Mutex
	dirty map[string]V
}

// New returns an empty Map.
func New[V any]() *Map[V] {
	m := &Map[V]{}
	empty := &readMap[V]{m: map[string]V{}}
	for i := range m.shards {
		// Shards may share one empty snapshot: readMaps are immutable.
		m.shards[i].read.Store(empty)
	}
	return m
}

// Load returns the value stored for key. The fast path — key in the read
// map, or a definitive miss on an unamended snapshot — takes no locks; only
// a miss racing pending writes consults the overlay under the shard lock.
func (m *Map[V]) Load(key string) (V, bool) { return load(m, key) }

// LoadBytes is Load for a key rendered into a byte slice, without
// allocating: the string conversions in load sit directly in map index
// expressions, which the compiler serves without a copy.
func (m *Map[V]) LoadBytes(key []byte) (V, bool) { return load(m, key) }

func load[V any, K ~string | ~[]byte](m *Map[V], key K) (V, bool) {
	sh := &m.shards[stats.KeyHash(key)&(shards-1)]
	r := sh.read.Load()
	if v, ok := r.m[string(key)]; ok || !r.amended {
		return v, ok
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Re-load under the lock: a promotion may have raced the probe.
	if v, ok := sh.read.Load().m[string(key)]; ok {
		return v, true
	}
	v, ok := sh.dirty[string(key)]
	return v, ok
}

// Update runs fn on key's current value (ok reports whether one exists)
// under the shard lock and, when fn asks to store, publishes its result.
// Holding the lock makes the read-merge-publish of one key atomic. fn must
// be short, must not block, and must not re-enter the Map. Update reports
// whether it stored.
func (m *Map[V]) Update(key string, fn func(old V, ok bool) (V, bool)) bool {
	sh := &m.shards[stats.KeyHash(key)&(shards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.read.Load()
	old, ok := sh.dirty[key]
	_, shadowed := r.m[key]
	if !ok {
		old, ok = r.m[key]
	}
	v, store := fn(old, ok) //cstlint:allow lockorder(Update's contract: fn is a short non-blocking merge that must run under the shard lock)
	if !store {
		return false
	}
	if sh.dirty == nil {
		sh.dirty = make(map[string]V)
	}
	sh.dirty[key] = v
	if shadowed || len(sh.dirty) >= 1+len(r.m)/2 {
		sh.promoteLocked(r)
		return true
	}
	if !r.amended {
		// First pending write since the last promotion: warn lock-free
		// missers that the overlay is live.
		sh.read.Store(&readMap[V]{m: r.m, amended: true})
	}
	return true
}

// promoteLocked merges read and dirty into a fresh immutable snapshot and
// publishes it. The size threshold in Update grows with the read map, so
// total copy work over n inserts is O(n) amortized (geometric growth, like
// append). Callers hold sh.mu.
func (sh *shard[V]) promoteLocked(r *readMap[V]) {
	nm := make(map[string]V, len(r.m)+len(sh.dirty))
	for k, v := range r.m {
		nm[k] = v
	}
	for k, v := range sh.dirty {
		nm[k] = v
	}
	sh.read.Store(&readMap[V]{m: nm})
	sh.dirty = nil
}

// Range calls fn for every key and value. Each shard is first promoted, so
// fn runs on an immutable snapshot with no lock held and may itself use the
// Map. The visiting order is unspecified: callers that need one sort what
// they collect.
func (m *Map[V]) Range(fn func(key string, v V)) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		r := sh.read.Load()
		if r.amended {
			sh.promoteLocked(r)
			r = sh.read.Load()
		}
		sh.mu.Unlock()
		for k, v := range r.m {
			fn(k, v)
		}
	}
}
