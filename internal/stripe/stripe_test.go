package stripe

import (
	"fmt"
	"sync"
	"testing"
)

// minMerge is the result store's merge: keep the smaller value.
func minMerge(ms float64) func(float64, bool) (float64, bool) {
	return func(old float64, ok bool) (float64, bool) { return ms, !ok || ms < old }
}

func TestUpdateLoadAcrossPromotions(t *testing.T) {
	m := New[int]()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprint("k", i)
		if !m.Update(k, func(int, bool) (int, bool) { return i, true }) {
			t.Fatalf("Update(%s) did not store", k)
		}
		// Every key written so far must be visible through both probes,
		// whether it sits in a published read map or the dirty overlay.
		for _, j := range []int{0, i / 2, i} {
			kj := fmt.Sprint("k", j)
			if v, ok := m.Load(kj); !ok || v != j {
				t.Fatalf("after %d inserts: Load(%s) = %d,%v", i+1, kj, v, ok)
			}
			if v, ok := m.LoadBytes([]byte(kj)); !ok || v != j {
				t.Fatalf("after %d inserts: LoadBytes(%s) = %d,%v", i+1, kj, v, ok)
			}
		}
	}
	if _, ok := m.Load("absent"); ok {
		t.Fatal("Load of an absent key hit")
	}
}

// TestOverwriteIsVisible pins that a probe never serves a value the dirty
// overlay has replaced: rewriting a key already published in the read map
// must show through at once.
func TestOverwriteIsVisible(t *testing.T) {
	m := New[float64]()
	for i := 0; i < 512; i++ {
		m.Update(fmt.Sprint("k", i), minMerge(float64(100+i)))
	}
	if !m.Update("k7", minMerge(1)) {
		t.Fatal("an improvement did not store")
	}
	if m.Update("k7", minMerge(5)) {
		t.Fatal("a regression stored")
	}
	if v, _ := m.Load("k7"); v != 1 {
		t.Fatalf("Load(k7) = %v after improvement to 1", v)
	}
	if v, _ := m.LoadBytes([]byte("k7")); v != 1 {
		t.Fatalf("LoadBytes(k7) = %v after improvement to 1", v)
	}
}

func TestRangeSeesEveryKeyOnce(t *testing.T) {
	m := New[int]()
	want := map[string]int{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprint("r", i)
		want[k] = i
		m.Update(k, func(int, bool) (int, bool) { return i, true })
	}
	got := map[string]int{}
	m.Range(func(k string, v int) {
		if _, dup := got[k]; dup {
			t.Errorf("Range visited %s twice", k)
		}
		got[k] = v
		// fn runs without a shard lock held, so it may use the Map.
		if _, ok := m.Load(k); !ok {
			t.Errorf("Load(%s) missed inside Range", k)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestConcurrentMinMerge races writers and readers over shared keys: the
// final value of every key is its minimum, whatever the schedule.
func TestConcurrentMinMerge(t *testing.T) {
	m := New[float64]()
	const writers, keys = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := fmt.Sprint("c", i)
				m.Update(k, minMerge(float64(w*keys+i)))
				if _, ok := m.Load(k); !ok {
					t.Errorf("Load(%s) missed its own write", k)
				}
			}
		}(w)
	}
	wg.Wait()
	n := 0
	m.Range(func(string, float64) { n++ })
	if n != keys {
		t.Fatalf("%d keys, want %d", n, keys)
	}
	for i := 0; i < keys; i++ {
		if v, _ := m.Load(fmt.Sprint("c", i)); v != float64(i) {
			t.Fatalf("c%d = %v, want its minimum %d", i, v, i)
		}
	}
}

func TestLoadBytesAllocatesNothing(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Update(fmt.Sprint("a", i), func(int, bool) (int, bool) { return i, true })
	}
	hit, miss := []byte("a42"), []byte("nope")
	if n := testing.AllocsPerRun(100, func() {
		m.LoadBytes(hit)
		m.LoadBytes(miss)
	}); n != 0 {
		t.Fatalf("LoadBytes allocates %v per probe pair", n)
	}
}
