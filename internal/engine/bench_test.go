package engine

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
	"repro/internal/store"
)

// The engine microbenchmarks below are the inputs to cmd/benchsnap, which
// serializes their ns/op and allocs/op into BENCH_engine.json so perf
// regressions in the measurement hot path show up as diffs in review.
// Keep names stable: the snapshot schema is keyed by benchmark name.

// benchVariant returns a distinct valid setting for iteration i. TBx stays
// in [1, 998] (999 is fakeObj's invalid marker).
func benchVariant(sp *space.Space, i int) space.Setting {
	return variant(sp, 1+i%998, i/998)
}

// BenchmarkMeasureCacheHit is the memoized re-probe path: the key rendered
// into stack scratch and one lock-free stripe.Map probe, no objective call,
// no accounting.
func BenchmarkMeasureCacheHit(b *testing.B) {
	f := newFake(b)
	e := New(f)
	s := variant(f.sp, 64, 4)
	if _, err := e.Measure(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Measure(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureCacheHitParallel hammers the same cached key from every
// GOMAXPROCS worker at once. On the striped cache a hit takes zero locks
// (one atomic read-map load per probe), so this should scale flat instead
// of serializing on the accounting mutex.
func BenchmarkMeasureCacheHitParallel(b *testing.B) {
	f := newFake(b)
	e := New(f)
	s := variant(f.sp, 64, 4)
	if _, err := e.Measure(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Measure(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasureMiss is the full first-probe path: objective dispatch,
// trajectory append, budget accounting, cache insert. Every iteration uses
// a distinct setting so nothing is served from cache.
func BenchmarkMeasureMiss(b *testing.B) {
	f := newFake(b)
	e := New(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Measure(benchVariant(f.sp, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureMissSim is the miss path over the real objective: each
// Measure runs sim.Simulator (kernel.Build plus the execution-time model)
// on a distinct valid rhs4center setting on the A100. The pool is drawn
// before the timer starts; when it wraps, a fresh engine is built off the
// clock, so every timed Measure is a miss.
func BenchmarkMeasureMissSim(b *testing.B) {
	sp, err := space.New(stencil.RHS4Center())
	if err != nil {
		b.Fatal(err)
	}
	obj := sim.New(sp, gpu.A100())
	rng := rand.New(rand.NewSource(1))
	pool := make([]space.Setting, 0, 1024)
	seen := map[string]bool{}
	for len(pool) < cap(pool) {
		s := sp.Random(rng)
		if _, err := obj.Measure(s); err != nil || seen[s.Key()] {
			continue
		}
		seen[s.Key()] = true
		pool = append(pool, s)
	}
	e := New(obj)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(pool) == 0 {
			b.StopTimer()
			e = New(obj)
			b.StartTimer()
		}
		if _, err := e.Measure(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureBatch64 drives the worker-pool batch path with 64
// distinct settings per iteration.
func BenchmarkMeasureBatch64(b *testing.B) {
	f := newFake(b)
	e := New(f, WithWorkers(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]space.Setting, 64)
		for j := range batch {
			batch[j] = benchVariant(f.sp, i*64+j)
		}
		for _, r := range e.MeasureBatch(batch) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkBatchCachedProbe64 re-submits the same fully-cached 64-setting
// batch every iteration: phase 1 serves everything from the lock-free cache
// probe, so this pins the cost of the probe-and-skip path that previously
// took the engine mutex once per setting.
func BenchmarkBatchCachedProbe64(b *testing.B) {
	f := newFake(b)
	e := New(f, WithWorkers(4))
	batch := make([]space.Setting, 64)
	for j := range batch {
		batch[j] = benchVariant(f.sp, j)
	}
	for _, r := range e.MeasureBatch(batch) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range e.MeasureBatch(batch) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkJournalAppend is the durable episode path: each miss is framed,
// CRC'd, appended and fsync'd to the write-ahead log before Measure
// returns. This is the price of crash safety per evaluation.
func BenchmarkJournalAppend(b *testing.B) {
	f := newFake(b)
	j, err := journal.Create(filepath.Join(b.TempDir(), "bench.wal"), "bench-fp")
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	e := New(f, WithJournal(j))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Measure(benchVariant(f.sp, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalReplay256 is the resume path: open a WAL holding 256
// episodes, build an engine on it, and re-measure every setting — all 256
// must be served by replay, with zero objective calls.
func BenchmarkJournalReplay256(b *testing.B) {
	const episodes = 256
	path := filepath.Join(b.TempDir(), "replay.wal")
	{
		f := newFake(b)
		j, err := journal.Create(path, "bench-fp")
		if err != nil {
			b.Fatal(err)
		}
		e := New(f, WithJournal(j))
		for i := 0; i < episodes; i++ {
			if _, err := e.Measure(benchVariant(f.sp, i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
	f := newFake(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := journal.Open(path, "bench-fp")
		if err != nil {
			b.Fatal(err)
		}
		e := New(f, WithJournal(j))
		if e.ReplayPending() != episodes {
			b.Fatalf("ReplayPending = %d, want %d", e.ReplayPending(), episodes)
		}
		for k := 0; k < episodes; k++ {
			if _, err := e.Measure(benchVariant(f.sp, k)); err != nil {
				b.Fatal(err)
			}
		}
		if e.Replayed() != episodes {
			b.Fatalf("Replayed = %d, want %d", e.Replayed(), episodes)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// storeBenchEngine builds an engine attached to a store pre-loaded with n
// composite keys (benchVariant 0..n-1), returning the engine, the store and
// the raw setting keys.
func storeBenchEngine(b *testing.B, n int) (*Engine, *store.Store, []string) {
	b.Helper()
	st, err := store.Open(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	f := newFake(b)
	e := New(f, WithStore(st, testPrefix))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = benchVariant(f.sp, i).Key()
		st.Put(testPrefix+keys[i], 0.25+float64(i)/float64(n))
	}
	return e, st, keys
}

// BenchmarkStoreLookupHit is the cross-campaign hit primitive: render the
// composite key into stack scratch and probe the store's lock-free striped
// index. The acceptance bar is ~2x BenchmarkMeasureCacheHit — a shared-store
// hit should cost about as much as a memo-cache hit.
func BenchmarkStoreLookupHit(b *testing.B) {
	e, _, keys := storeBenchEngine(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.storeProbe(keys[i%len(keys)]); !ok {
			b.Fatal("seeded key missed")
		}
	}
}

// BenchmarkStoreLookupMiss probes keys the store does not hold — the cost
// every store-attached measurement pays before falling through to the
// objective.
func BenchmarkStoreLookupMiss(b *testing.B) {
	e, _, _ := storeBenchEngine(b, 4096)
	f := newFake(b)
	miss := make([]string, 1024)
	for i := range miss {
		miss[i] = benchVariant(f.sp, 100000+i).Key()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.storeProbe(miss[i%len(miss)]); ok {
			b.Fatal("unseeded key hit")
		}
	}
}

// BenchmarkStoreAppend is the publish path: each iteration records a new
// best under a fresh composite key — index insert plus one buffered,
// CRC-framed segment write (no fsync).
func BenchmarkStoreAppend(b *testing.B) {
	_, st, _ := storeBenchEngine(b, 1)
	f := newFake(b)
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = testPrefix + benchVariant(f.sp, 200000+i).Key()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Put(keys[i], 0.5)
	}
}
