package engine

import (
	"path/filepath"
	"testing"

	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/stencil"
	"repro/internal/store"
	"repro/internal/vfs"
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
// into stack scratch and one plain map probe, no lock, no objective call,
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
	rng := stats.NewRand(1)
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

// BenchmarkJournalAppend is the journaled episode path: each miss is
// framed, CRC'd and appended to the write-ahead log before Measure returns,
// and every journalSyncEvery-th miss also pays the fsync that makes its
// batch durable. This is the price of crash safety per evaluation.
func BenchmarkJournalAppend(b *testing.B) {
	f := newFake(b)
	j, err := journal.CreateFS(vfs.OS, filepath.Join(b.TempDir(), "bench.wal"), "bench-fp")
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
		j, err := journal.CreateFS(vfs.OS, path, "bench-fp")
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
		j, err := journal.OpenFS(vfs.OS, path, "bench-fp")
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
// composite key into a stack buffer and probe the store's map under its
// read lock. The acceptance bar is ~2x BenchmarkMeasureCacheHit — a
// shared-store hit should cost about as much as a memo-cache hit.
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

// BenchmarkStoreOpen is a daemon restart's store load: Open reads one
// segment shaped like the store a daemon-warm pass leaves behind — 8
// stencils × 2 GPUs × 310 distinct random settings, 4,960 records with real
// arch and shape fingerprints — and min-merges it into the index.
func BenchmarkStoreOpen(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	for _, sten := range stencil.Suite() {
		sp, err := space.New(sten)
		if err != nil {
			b.Fatal(err)
		}
		for _, arch := range []*gpu.Arch{gpu.A100(), gpu.V100()} {
			prefix := store.Prefix(store.ArchFingerprint(arch), store.ShapeFingerprint(sten))
			for n := 0; n < 310; {
				s := sp.Random(rng)
				if st.Contains(prefix + s.Key()) {
					continue
				}
				st.Put(prefix+s.Key(), 0.5+rng.Float64())
				n++
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if k := st.Stats().Keys; k != 8*2*310 {
			b.Fatalf("loaded %d keys, want %d", k, 8*2*310)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
