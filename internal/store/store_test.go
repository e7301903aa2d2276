package store

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/frame"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// The two-process test re-execs this test binary with childDirEnv set; the
// child body lives in TestMain so it shares zero test state with the parent.
const (
	childDirEnv = "CSTORE_TEST_CHILD_DIR"
	childIDEnv  = "CSTORE_TEST_CHILD_ID"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(childDirEnv); dir != "" {
		runChildWriter(dir, os.Getenv(childIDEnv))
		return
	}
	os.Exit(m.Run())
}

// runChildWriter is the child-process body: open the shared store, publish a
// deterministic record set (some keys unique to this child, some contended
// with every other writer), flush and exit.
func runChildWriter(dir, id string) {
	s, err := OpenFS(vfs.OS, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: open:", err)
		os.Exit(2)
	}
	for i := 0; i < 200; i++ {
		s.Put(Key("archA", "shapeA", fmt.Sprintf("own-%s-%d", id, i)), float64(i)+1)
		s.Put(Key("archA", "shapeA", fmt.Sprintf("shared-%d", i%20)), float64(i%7)+1)
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "child: close:", err)
		os.Exit(2)
	}
	os.Exit(0)
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("archA", "shapeA", "bx=32")
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put(k, 3.5)
	if ms, ok := s.Get(k); !ok || ms != 3.5 {
		t.Fatalf("Get = %v,%v want 3.5,true", ms, ok)
	}
	if ms, ok := s.GetBytes([]byte(k)); !ok || ms != 3.5 {
		t.Fatalf("GetBytes = %v,%v want 3.5,true", ms, ok)
	}
	if !s.Contains(k) {
		t.Fatal("Contains = false after Put")
	}

	// Min-merge: a worse time never overwrites, a better one does.
	s.Put(k, 9.0)
	if ms, _ := s.Get(k); ms != 3.5 {
		t.Fatalf("worse Put overwrote: got %v", ms)
	}
	s.Put(k, 1.25)
	if ms, _ := s.Get(k); ms != 1.25 {
		t.Fatalf("better Put ignored: got %v", ms)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Persistence: a fresh Open sees the minimum.
	s2, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if ms, ok := s2.Get(k); !ok || ms != 1.25 {
		t.Fatalf("reopened Get = %v,%v want 1.25,true", ms, ok)
	}
	st := s2.Stats()
	if st.Keys != 1 || st.Quarantined != nil || st.SkippedSegments != 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
	_ = s2.Close()
}

func TestStorePutAfterCloseRefused(t *testing.T) {
	s, err := OpenFS(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Put("a|b|c", 1) // must not panic or write
	if err := s.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v want ErrClosed", err)
	}
	// The index still updated: closed stores keep serving the running process.
	if ms, ok := s.Get("a|b|c"); !ok || ms != 1 {
		t.Fatalf("post-close Get = %v,%v", ms, ok)
	}
}

// TestStoreTwoInstancesOneDir covers the same-directory concurrency contract
// in-process: each Store appends to its own O_EXCL segment (the retry
// ordinal separates same-pid instances), and a fresh Open min-merges both.
func TestStoreTwoInstancesOneDir(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("archA", "shapeA", "contended")
	a.Put(k, 5)
	b.Put(k, 3) // b never saw a's unflushed record; its own min is 3
	a.Put(Key("archA", "shapeA", "only-a"), 7)
	b.Put(Key("archA", "shapeA", "only-b"), 8)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 2 {
		t.Fatalf("want 2 segments (one per instance), got %v", segs)
	}
	m, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if ms, _ := m.Get(k); ms != 3 {
		t.Fatalf("merged contended key = %v want 3", ms)
	}
	if ms, _ := m.Get(Key("archA", "shapeA", "only-a")); ms != 7 {
		t.Fatalf("only-a = %v", ms)
	}
	if ms, _ := m.Get(Key("archA", "shapeA", "only-b")); ms != 8 {
		t.Fatalf("only-b = %v", ms)
	}
}

// TestStoreTwoProcessSharedDir is the cross-process version: two real child
// processes and the parent all write the same directory concurrently, and a
// final Open must see every record, the correct contended minima, and zero
// corruption.
func TestStoreTwoProcessSharedDir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()

	var kids []*exec.Cmd
	for _, id := range []string{"c1", "c2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), childDirEnv+"="+dir, childIDEnv+"="+id)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, cmd)
	}

	// The parent writes concurrently with both children.
	p, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p.Put(Key("archA", "shapeA", fmt.Sprintf("own-parent-%d", i)), float64(i)+1)
		p.Put(Key("archA", "shapeA", fmt.Sprintf("shared-%d", i%20)), float64(i%7)+1)
	}
	for _, cmd := range kids {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("child writer failed: %v", err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.Stats()
	if st.Quarantined != nil || st.SkippedSegments != 0 {
		t.Fatalf("shared dir corrupted: %+v", st)
	}
	// 3 writers × 200 own keys + 20 contended keys.
	if want := 3*200 + 20; st.Keys != want {
		t.Fatalf("Keys = %d want %d", st.Keys, want)
	}
	for _, id := range []string{"c1", "c2", "parent"} {
		for i := 0; i < 200; i++ {
			k := Key("archA", "shapeA", fmt.Sprintf("own-%s-%d", id, i))
			if ms, ok := m.Get(k); !ok || ms != float64(i)+1 {
				t.Fatalf("%s = %v,%v want %v", k, ms, ok, float64(i)+1)
			}
		}
	}
	// Every contended key's minimum over i%7+1 for the i hitting it is 1..7;
	// shared-j is written by i ∈ {j, j+20, ...}; min over those of i%7+1.
	for j := 0; j < 20; j++ {
		min := 8.0
		for i := j; i < 200; i += 20 {
			if v := float64(i%7) + 1; v < min {
				min = v
			}
		}
		k := Key("archA", "shapeA", fmt.Sprintf("shared-%d", j))
		if ms, ok := m.Get(k); !ok || ms != min {
			t.Fatalf("%s = %v,%v want %v", k, ms, ok, min)
		}
	}
}

func TestStoreBest(t *testing.T) {
	s, err := OpenFS(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(Key("archA", "shapeA", "s1"), 3)
	s.Put(Key("archA", "shapeA", "s2"), 1)
	s.Put(Key("archB", "shapeA", "s3"), 2)
	s.Put(Key("archB", "shapeA", "s2"), 2) // tie with s3 on MS; arch+setting breaks it
	s.Put(Key("archA", "shapeB", "s4"), 0.1)

	got := s.Best("shapeA", "", 10)
	want := []string{"s2", "s2", "s3", "s1"} // 1, 2(archB,s2), 2(archB,s3), 3
	if len(got) != len(want) {
		t.Fatalf("Best all-arch = %+v", got)
	}
	for i, e := range got {
		if e.Setting != want[i] {
			t.Fatalf("Best[%d] = %+v want setting %s (all %+v)", i, e, want[i], got)
		}
	}
	if got[1].MS != 2 || got[2].MS != 2 || got[1].Setting > got[2].Setting {
		t.Fatalf("tie-break not by setting key: %+v", got)
	}

	onlyA := s.Best("shapeA", "archA", 10)
	if len(onlyA) != 2 || onlyA[0].Setting != "s2" || onlyA[1].Setting != "s1" {
		t.Fatalf("Best archA = %+v", onlyA)
	}
	if top := s.Best("shapeA", "", 1); len(top) != 1 || top[0].Setting != "s2" || top[0].MS != 1 {
		t.Fatalf("Best n=1 = %+v", top)
	}
	if s.Best("shapeA", "", 0) != nil {
		t.Fatal("Best n=0 should be nil")
	}
}

// bruteBest is Best's reference: every key of a plain min-merged map split
// and filtered, then sorted by (ms, arch, setting).
func bruteBest(ref map[string]float64, shape, arch string, n int) []Entry {
	if n <= 0 {
		return nil
	}
	var out []Entry
	for k, ms := range ref {
		if a, sh, set, ok := SplitKey(k); ok && sh == shape && (arch == "" || a == arch) {
			out = append(out, Entry{Arch: a, Shape: sh, Setting: set, MS: ms})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MS != out[j].MS {
			return out[i].MS < out[j].MS
		}
		if out[i].Arch != out[j].Arch {
			return out[i].Arch < out[j].Arch
		}
		return out[i].Setting < out[j].Setting
	})
	return out[:min(n, len(out))]
}

// TestStoreBestMatchesReference drives the store with seeded random Puts,
// many of them improving or failing to improve a stored key, across a close
// and reopen over two segments, and after every step checks Best for every
// shape, both archs and "", and several n against bruteBest over a plain
// map fed the same Puts.
func TestStoreBestMatchesReference(t *testing.T) {
	rng := stats.NewRand(23)
	archs := []string{"archA", "archB"}
	shapes := []string{"shape0", "shape1", "shape2", "shape3"}
	ref := map[string]float64{}
	var s *Store
	check := func(step string) {
		t.Helper()
		for _, shape := range append(shapes, "absent") {
			for _, arch := range append(archs, "") {
				all := bruteBest(ref, shape, arch, len(ref)+1)
				for _, n := range []int{0, 1, 3, 17, len(ref) + 1} {
					got, want := s.Best(shape, arch, n), all[:min(n, len(all))]
					if len(got) != len(want) {
						t.Fatalf("%s: Best(%s, %q, %d) has %d entries, want %d", step, shape, arch, n, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: Best(%s, %q, %d)[%d] = %+v, want %+v", step, shape, arch, n, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	put := func(step string) {
		setting := fmt.Sprintf("s%02d", rng.Intn(30))
		if rng.Intn(10) == 0 {
			setting += "|tail" // the setting part may itself hold '|'
		}
		key := Key(archs[rng.Intn(len(archs))], shapes[rng.Intn(len(shapes))], setting)
		if rng.Intn(20) == 0 {
			key = "unsplittable-" + setting[:3]
		}
		ms := float64(1+rng.Intn(40)) / 8 // coarse, so ties are common
		s.Put(key, ms)
		if old, ok := ref[key]; !ok || ms < old {
			ref[key] = ms
		}
		check(step)
	}
	reopen := func(dir string) {
		t.Helper()
		if s != nil {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if s, err = OpenFS(vfs.OS, dir); err != nil {
			t.Fatal(err)
		}
		check("reopen")
	}

	dir := t.TempDir()
	for phase := 0; phase < 3; phase++ {
		reopen(dir) // phase 1 loads the first segment, phase 2 both
		for i := 0; i < 150; i++ {
			put(fmt.Sprintf("phase %d put %d", phase, i))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) != 3 {
		t.Fatalf("segments = %v, want one per phase", segs)
	}
}

// TestStoreRefusesNonFinite pins that a NaN or infinite time never reaches
// the index or a segment: it cannot degrade the store (JSON has no
// encoding for it) or pin a key (no time compares less than NaN).
func TestStoreRefusesNonFinite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	inf, nan := Key("archA", "shapeA", "inf"), Key("archA", "shapeA", "nan")
	s.Put(inf, math.Inf(1))
	s.Put(nan, math.NaN())
	s.Put(Key("archA", "shapeA", "neg"), math.Inf(-1))
	if st := s.Stats(); st.Keys != 0 || s.Degraded() || st.WriteErr != "" {
		t.Fatalf("non-finite Puts reached the store: degraded=%v, %+v", s.Degraded(), st)
	}
	s.Put(inf, 2)
	s.Put(nan, 3)
	s.Put(nan, math.NaN())
	s.Put(nan, 1)
	if st := s.Stats(); st.Keys != 2 || st.AppendedRecords != 3 || st.PutDrops != 0 || s.Degraded() {
		t.Fatalf("finite Puts after non-finite ones: degraded=%v, %+v", s.Degraded(), st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k, want := range map[string]float64{inf: 2, nan: 1} {
		if ms, ok := r.Get(k); !ok || ms != want {
			t.Fatalf("reopened %s = %v,%v want %v", k, ms, ok, want)
		}
	}
	if st := r.Stats(); st.Keys != 2 || st.SkippedSegments != 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
}

// TestStoreConcurrentMinMerge races writers, probes and Best over shared
// keys: the final value of every key is its minimum, whatever the schedule.
func TestStoreConcurrentMinMerge(t *testing.T) {
	s, err := OpenFS(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, keys = 8, 200
	key := func(i int) string { return Key("archA", "shapeA", fmt.Sprint("c", i)) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				s.Put(key(i), float64(w*keys+i))
				if _, ok := s.GetBytes([]byte(key(i))); !ok {
					t.Errorf("GetBytes(%s) missed its own write", key(i))
				}
				if i%50 == 0 && len(s.Best("shapeA", "", 5)) == 0 {
					t.Errorf("Best missed every stored key")
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Stats().Keys; n != keys {
		t.Fatalf("%d keys, want %d", n, keys)
	}
	for i := 0; i < keys; i++ {
		if ms, _ := s.Get(key(i)); ms != float64(i) {
			t.Fatalf("%s = %v, want its minimum %d", key(i), ms, i)
		}
	}
	if top := s.Best("shapeA", "archA", 1); len(top) != 1 || top[0].Setting != "c0" || top[0].MS != 0 {
		t.Fatalf("Best after the race = %+v", top)
	}
}

func TestStoreGetBytesAllocatesNothing(t *testing.T) {
	s, err := OpenFS(vfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put(Key("archA", "shapeA", fmt.Sprint("a", i)), float64(i)+1)
	}
	hit, miss := []byte(Key("archA", "shapeA", "a42")), []byte(Key("archA", "shapeA", "nope"))
	if n := testing.AllocsPerRun(100, func() {
		s.GetBytes(hit)
		s.GetBytes(miss)
	}); n != 0 {
		t.Fatalf("GetBytes allocates %v per probe pair", n)
	}
}

// buildSegment renders a valid segment file's bytes: header plus records.
func buildSegment(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, record{T: "hdr", Hdr: &Header{Magic: Magic, Version: Version}}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := writeFrame(w, record{T: "rec", Rec: &recs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreCorruption is the damage table: every way a segment can rot must
// leave Open working, never panic, and never poison the index with bogus
// records. Quarantines rename to .bad; torn tails stop the scan in place.
func TestStoreCorruption(t *testing.T) {
	recs := []Record{
		{Key: Key("archA", "shapeA", "k1"), MS: 1.5},
		{Key: Key("archA", "shapeA", "k2"), MS: 2.5},
		{Key: Key("archA", "shapeA", "k3"), MS: 3.5},
	}
	valid := buildSegment(t, recs...)
	hdrLen := len(buildSegment(t)) // header frame only

	cases := []struct {
		name       string
		mutate     func([]byte) []byte
		wantKeys   int
		wantSkip   bool
		wantQuar   bool
		wantGone   bool // original .seg renamed away
		wantLoaded int
	}{
		{
			name:       "intact",
			mutate:     func(b []byte) []byte { return b },
			wantKeys:   3,
			wantLoaded: 3,
		},
		{
			name:     "empty file",
			mutate:   func(b []byte) []byte { return nil },
			wantKeys: 0,
		},
		{
			name:     "garbage header",
			mutate:   func(b []byte) []byte { return []byte("not a store segment at all") },
			wantKeys: 0, wantQuar: true, wantGone: true,
		},
		{
			name: "bit flip in header payload",
			mutate: func(b []byte) []byte {
				b[frame.HeaderLen+2] ^= 0x40
				return b
			},
			wantKeys: 0, wantQuar: true, wantGone: true,
		},
		{
			name: "truncated mid-record",
			mutate: func(b []byte) []byte {
				return b[:hdrLen+(len(valid)-hdrLen)/2]
			},
			wantKeys: 1, wantSkip: true, wantLoaded: 1,
		},
		{
			name: "torn tail: dangling frame header",
			mutate: func(b []byte) []byte {
				return append(b, 0x10, 0x00, 0x00, 0x00)
			},
			wantKeys: 3, wantSkip: true, wantLoaded: 3,
		},
		{
			name: "bit flip in last record payload",
			mutate: func(b []byte) []byte {
				b[len(b)-3] ^= 0x01
				return b
			},
			wantKeys: 2, wantSkip: true, wantLoaded: 2,
		},
		{
			name: "length prefix blown up",
			mutate: func(b []byte) []byte {
				copy(b[hdrLen:], []byte{0xff, 0xff, 0xff, 0x7f})
				return b
			},
			wantKeys: 0, wantSkip: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, "seg-1-0000.seg")
			data := tc.mutate(append([]byte(nil), valid...))
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenFS(vfs.OS, dir)
			if err != nil {
				t.Fatalf("Open must survive damage: %v", err)
			}
			defer s.Close()
			st := s.Stats()
			if st.Keys != tc.wantKeys {
				t.Fatalf("Keys = %d want %d (stats %+v)", st.Keys, tc.wantKeys, st)
			}
			if tc.wantLoaded != 0 && st.LoadedRecords != tc.wantLoaded {
				t.Fatalf("LoadedRecords = %d want %d", st.LoadedRecords, tc.wantLoaded)
			}
			if (st.SkippedSegments > 0) != tc.wantSkip {
				t.Fatalf("SkippedSegments = %d, wantSkip=%v", st.SkippedSegments, tc.wantSkip)
			}
			if (len(st.Quarantined) > 0) != tc.wantQuar {
				t.Fatalf("Quarantined = %v, wantQuar=%v", st.Quarantined, tc.wantQuar)
			}
			if _, err := os.Stat(seg); tc.wantGone != os.IsNotExist(err) {
				t.Fatalf("segment present=%v, wantGone=%v", err == nil, tc.wantGone)
			}
			if tc.wantQuar {
				if _, err := os.Stat(seg + ".bad"); err != nil {
					t.Fatalf("no .bad quarantine file: %v", err)
				}
			}
			// Never poisoned: whatever loaded must be an exact valid record.
			for _, r := range recs {
				if ms, ok := s.Get(r.Key); ok && ms != r.MS {
					t.Fatalf("poisoned: %s = %v want %v", r.Key, ms, r.MS)
				}
			}
			// And the store must still accept writes after any damage.
			s.Put(Key("archA", "shapeA", "fresh"), 0.25)
			if ms, ok := s.Get(Key("archA", "shapeA", "fresh")); !ok || ms != 0.25 {
				t.Fatalf("Put after damage = %v,%v", ms, ok)
			}
			if werr := s.Stats().WriteErr; werr != "" {
				t.Fatalf("write error after damage: %s", werr)
			}
		})
	}
}

// TestStoreReopenAfterQuarantine: a quarantined segment stays out of the way
// on the next Open (it is .bad now), and the store keeps accumulating.
func TestStoreReopenAfterQuarantine(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-9-0000.seg"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if q := s.Stats().Quarantined; len(q) != 1 || !strings.Contains(q[0], ".bad") {
		t.Fatalf("Quarantined = %v", q)
	}
	s.Put(Key("archA", "shapeA", "x"), 1)
	_ = s.Close()

	s2, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if len(st.Quarantined) != 0 {
		t.Fatalf("second Open re-quarantined: %v", st.Quarantined)
	}
	if ms, ok := s2.Get(Key("archA", "shapeA", "x")); !ok || ms != 1 {
		t.Fatalf("record lost across quarantine reopen: %v,%v", ms, ok)
	}
}

// FuzzStoreRecord feeds arbitrary bytes to the segment loader: Open must
// never panic, never invent records that were not framed with a valid CRC,
// and must leave the store writable.
func FuzzStoreRecord(f *testing.F) {
	valid := buildSegmentFuzz(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("csstore"))
	f.Add(valid[:len(valid)-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x80
	f.Add(flip)
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-1-0000.seg"), data, 0o644); err != nil {
			t.Skip()
		}
		s, err := OpenFS(vfs.OS, dir)
		if err != nil {
			t.Fatalf("Open returned error on arbitrary bytes: %v", err)
		}
		defer s.Close()
		// Whatever loaded, the store must still work.
		s.Put("a|b|probe", 0.125)
		if ms, ok := s.Get("a|b|probe"); !ok || ms != 0.125 {
			t.Fatalf("store poisoned: probe = %v,%v", ms, ok)
		}
		st := s.Stats()
		if st.Keys < 1 {
			t.Fatalf("index lost the probe key: %+v", st)
		}
	})
}

// buildSegmentFuzz is buildSegment for the fuzz seed corpus (testing.F is
// not a testing.T).
func buildSegmentFuzz(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	_ = writeFrame(w, record{T: "hdr", Hdr: &Header{Magic: Magic, Version: Version}})
	_ = writeFrame(w, record{T: "rec", Rec: &Record{Key: "a|b|c", MS: 1}})
	_ = writeFrame(w, record{T: "rec", Rec: &Record{Key: "a|b|d", MS: 2}})
	_ = w.Flush()
	return buf.Bytes()
}
