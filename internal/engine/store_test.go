package engine

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/space"
	"repro/internal/store"
	"repro/internal/vfs"
)

const testPrefix = "arch:test|shape:test|"

func storeAt(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.OpenFS(vfs.OS, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

func TestStoreHitServesWithoutMeasuringOrCharging(t *testing.T) {
	st := storeAt(t)

	// Campaign A pays for two measurements and publishes them.
	fa := newFake(t)
	ea := New(fa, WithStore(st, testPrefix))
	s1, s2 := variant(fa.sp, 16, 1), variant(fa.sp, 64, 4)
	ms1, err := ea.Measure(s1)
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := ea.Measure(s2)
	if err != nil {
		t.Fatal(err)
	}
	if sa := ea.Stats(); sa.StoreHits != 0 || sa.StoreMisses != 2 {
		t.Fatalf("publisher stats = %+v", sa)
	}

	// Campaign B shares the store: both settings are free hits.
	fb := newFake(t)
	eb := New(fb, WithStore(st, testPrefix))
	got2, err := eb.Measure(s2)
	if err != nil || got2 != ms2 {
		t.Fatalf("hit = %v/%v want %v", got2, err, ms2)
	}
	got1, err := eb.Measure(s1)
	if err != nil || got1 != ms1 {
		t.Fatalf("hit = %v/%v want %v", got1, err, ms1)
	}
	if n := fb.callCount(s1) + fb.callCount(s2); n != 0 {
		t.Fatalf("store hits reached the objective %d times", n)
	}
	sb := eb.Stats()
	if sb.StoreHits != 2 || sb.StoreMisses != 0 {
		t.Fatalf("consumer stats = %+v", sb)
	}
	if sb.SpentS != 0 || sb.Evaluations != 0 {
		t.Fatalf("store hits were charged: %+v", sb)
	}
	// s2 is slower than s1 (TBx dominates): first hit set best, second
	// improved it — two trajectory points, both at zero cost.
	traj := eb.Trajectory()
	if len(traj) != 2 || traj[0].BestMS != ms2 || traj[1].BestMS != ms1 {
		t.Fatalf("trajectory = %+v", traj)
	}
	for _, p := range traj {
		if p.CostS != 0 || p.Evals != 0 {
			t.Fatalf("store-hit trajectory point advanced an axis: %+v", p)
		}
	}
	if set, ms, ok := eb.Best(); !ok || ms != ms1 || set.Key() != s1.Key() {
		t.Fatalf("best = %v/%v/%v", set, ms, ok)
	}
	// The hit landed in the memo cache: a re-probe is a cache hit, not a
	// second store hit.
	if _, err := eb.Measure(s1); err != nil {
		t.Fatal(err)
	}
	if sb2 := eb.Stats(); sb2.CacheHits != 1 || sb2.StoreHits != 2 {
		t.Fatalf("re-probe stats = %+v", sb2)
	}
}

// TestStoreDisabledIsByteIdentical pins the integration's zero-cost-off
// property: an engine with no store (or an explicitly nil one) produces
// exactly the baseline's stats, trajectory and results.
func TestStoreDisabledIsByteIdentical(t *testing.T) {
	fa := newFake(t)
	base := New(fa)
	runSequence(t, base, fa.sp)

	fb := newFake(t)
	nilStore := New(fb, WithStore(nil, "ignored"))
	runSequence(t, nilStore, fb.sp)

	if got, want := snap(nilStore), snap(base); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil store diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestStoreHitsJournalAndReplayWithoutStore pins resume independence: a
// store hit is journaled as its own episode class, so a resumed run replays
// it — identical stats, zero objective calls — even when the store is gone
// or has since changed.
func TestStoreHitsJournalAndReplayWithoutStore(t *testing.T) {
	st := storeAt(t)
	f := newFake(t)
	sp := f.sp
	hit, live := variant(sp, 8, 1), variant(sp, 24, 2)
	st.Put(testPrefix+hit.Key(), 0.5)

	j, path := journalAt(t, "fp")
	e := New(f, WithJournal(j), WithStore(st, testPrefix))
	if ms, err := e.Measure(hit); err != nil || ms != 0.5 {
		t.Fatalf("store hit = %v/%v", ms, err)
	}
	if _, err := e.Measure(live); err != nil {
		t.Fatal(err)
	}
	want := snap(e)
	if want.stats.StoreHits != 1 || want.stats.StoreMisses != 1 {
		t.Fatalf("original stats = %+v", want.stats)
	}
	j.Close()

	// Resume WITHOUT any store: the replayed ClassStore episode serves the
	// recorded time; the replayed live episode still counts no store miss
	// (no store attached).
	j2, err := journal.OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	f2 := newFake(t)
	e2 := New(f2, WithJournal(j2))
	if ms, err := e2.Measure(hit); err != nil || ms != 0.5 {
		t.Fatalf("replayed store hit = %v/%v", ms, err)
	}
	if _, err := e2.Measure(live); err != nil {
		t.Fatal(err)
	}
	got := snap(e2)
	// The miss counter tracks store consultations, which this storeless
	// resume never makes; everything else must replay exactly.
	want.stats.StoreMisses = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("storeless resume diverged:\n got %+v\nwant %+v", got, want)
	}
	if n := f2.callCount(hit) + f2.callCount(live); n != 0 {
		t.Fatalf("resume re-measured %d times", n)
	}

	// Resume WITH a store whose content has since improved: the journal wins
	// — replay must never re-probe, or resumed runs would depend on store
	// growth.
	st.Put(testPrefix+hit.Key(), 0.0625)
	j3, err := journal.OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	f3 := newFake(t)
	e3 := New(f3, WithJournal(j3), WithStore(st, testPrefix))
	if ms, err := e3.Measure(hit); err != nil || ms != 0.5 {
		t.Fatalf("replay re-probed a grown store: %v/%v want the journaled 0.5", ms, err)
	}
}

// TestStorePublishBackfillsOnReplay: a replayed success publishes to a store
// attached after the original run, so resume backfills shared state. Like
// a live one, the publish waits for the journal sync that covers its
// record: OpenFS leaves the recovered records to that sync.
func TestStorePublishBackfillsOnReplay(t *testing.T) {
	j, path := journalAt(t, "fp")
	f := newFake(t)
	sp := f.sp
	s := variant(sp, 12, 3)
	e := New(f, WithJournal(j))
	ms, err := e.Measure(s)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	st := storeAt(t)
	j2, err := journal.OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2 := New(newFake(t), WithJournal(j2), WithStore(st, testPrefix))
	if _, err := e2.Measure(s); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(testPrefix + s.Key()); ok {
		t.Fatalf("replayed success published before its journal sync: %v", got)
	}
	if err := e2.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(testPrefix + s.Key()); !ok || got != ms {
		t.Fatalf("replayed success not published: %v/%v want %v", got, ok, ms)
	}
}

// TestStorePublishWaitsForJournalSync is the oracle for "visible ⇒ synced".
// The journal runs on a FaultFS and the store on the real filesystem, which
// models a store segment that survived writeback while the journal's
// unsynced tail did not. For each episode k of a run that spans one full
// sync batch and part of the next, the power is cut at the op just after
// episode k; the store is flushed, both are reopened, and the same sequence
// resumes. The resumed run must match the uninterrupted one exactly, with
// no store hits: a measurement whose record the cut lost must not come back
// to its owner as a free store hit.
func TestStorePublishWaitsForJournalSync(t *testing.T) {
	const n = journalSyncEvery + 8
	seq := make([]space.Setting, n)
	for i := range seq {
		seq[i] = benchVariant(newFake(t).sp, i)
	}
	open := func(fsys vfs.FS, dir string, create bool) (*Engine, *journal.Journal, *store.Store) {
		t.Helper()
		path := filepath.Join(dir, "engine.wal")
		var j *journal.Journal
		var err error
		if create {
			j, err = journal.CreateFS(fsys, path, "fp")
		} else {
			j, err = journal.OpenFS(fsys, path, "fp")
		}
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.OpenFS(vfs.OS, filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		return New(newFake(t), WithJournal(j), WithStore(st, testPrefix)), j, st
	}

	// The uninterrupted run, noting the op count after every episode.
	counter := vfs.NewFaultFS(vfs.OS)
	e, j, st := open(counter, t.TempDir(), true)
	opsAfter := make([]int64, n)
	for i, s := range seq {
		if _, err := e.Measure(s); err != nil {
			t.Fatal(err)
		}
		opsAfter[i] = counter.Ops()
	}
	if err := e.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	want := snap(e)
	_ = j.Close()
	_ = st.Close()
	if want.stats.StoreHits != 0 || want.stats.StoreMisses != n {
		t.Fatalf("uninterrupted run stats = %+v", want.stats)
	}

	for k := 1; k < n; k++ {
		dir := t.TempDir()
		ff := vfs.NewFaultFS(vfs.OS)
		ff.CutAt(opsAfter[k-1], 0)
		e, j, st := open(ff, dir, true)
		for _, s := range seq {
			e.Measure(s) //nolint:errcheck — every measurement after the cut fails
		}
		_ = j.Close()
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		_ = st.Close()

		e2, j2, st2 := open(vfs.OS, dir, false)
		for _, s := range seq {
			if _, err := e2.Measure(s); err != nil {
				t.Fatalf("cut after episode %d: resume: %v", k, err)
			}
		}
		if err := e2.SyncJournal(); err != nil {
			t.Fatal(err)
		}
		got := snap(e2)
		_ = j2.Close()
		_ = st2.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut after episode %d: resumed run diverged\n got %+v\nwant %+v", k, got.stats, want.stats)
		}
	}
}
