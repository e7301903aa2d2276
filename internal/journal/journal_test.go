package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/vfs"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.wal")
}

func mustCreate(t *testing.T, path, fp string) *Journal {
	t.Helper()
	j, err := CreateFS(vfs.OS, path, fp)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func ep(key string, ms float64) Episode {
	return Episode{Key: key, Class: ClassOK, MS: ms, CostS: 1.5 + 3*ms/1000}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp1")
	want := []Episode{
		ep("1,2,3", 4.5),
		{Key: "9,9,9", Class: ClassPermanent, Err: "bad setting", CostS: 0.005},
		{Key: "0,0,1", Class: ClassBudget, Err: "budget exhausted", CostS: 0.005},
		{Key: "1,2,4", Class: ClassStore, MS: 2.5},
	}
	for _, e := range want {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFS(vfs.OS, path, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Recovered()
	if len(got) != len(want) {
		t.Fatalf("recovered %d episodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFingerprintMismatchRefused(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp-original")
	if err := j.Append(ep("1", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenFS(vfs.OS, path, "fp-different"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Open with wrong fingerprint: err = %v, want ErrFingerprint", err)
	}
	// Empty fingerprint skips the check (inspection tooling); the header
	// still holds the original one.
	for _, fp := range []string{"", "fp-original"} {
		r, err := OpenFS(vfs.OS, path, fp)
		if err != nil {
			t.Fatalf("Open with fingerprint %q: %v", fp, err)
		}
		r.Close()
	}
}

func TestOpenOrCreate(t *testing.T) {
	path := tmpPath(t)
	j, err := OpenOrCreateFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Recovered()) != 0 {
		t.Fatal("fresh journal recovered episodes")
	}
	if err := j.Append(ep("1", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenOrCreateFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(j2.Recovered()) != 1 {
		t.Fatalf("recovered %d episodes, want 1", len(j2.Recovered()))
	}
}

// legacyJournal hand-writes the layout older versions left behind after a
// checkpoint: [header][checkpoint][episodes appended after it]. The
// checkpoint frame carries the compacted history plus an engine summary
// that nothing reads any more.
func legacyJournal(tb testing.TB, fp string, compacted, tail []Episode) []byte {
	tb.Helper()
	var buf bytes.Buffer
	frames := []any{
		map[string]any{"t": "hdr", "hdr": Header{Magic: Magic, Version: Version, Fingerprint: fp}},
		map[string]any{"t": "ckpt", "ckpt": map[string]any{
			"episodes": compacted,
			"summary":  map[string]any{"spent_s": 4.5, "evaluations": len(compacted)},
		}},
	}
	for _, e := range tail {
		frames = append(frames, map[string]any{"t": "ep", "ep": e})
	}
	for _, fr := range frames {
		if err := frame.Write(&buf, fr); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestOpenRecoversLegacyCheckpoint: journals already on disk may hold a
// checkpoint frame; resume must recover the compacted history and every
// episode after it, and keep appending behind them.
func TestOpenRecoversLegacyCheckpoint(t *testing.T) {
	compacted := []Episode{ep("a", 1), ep("b", 2), ep("c", 3)}
	tail := []Episode{{Key: "d", Class: ClassPermanent, Err: "compile failed", CostS: 0.005}}
	path := tmpPath(t)
	if err := os.WriteFile(path, legacyJournal(t, "fp", compacted, tail), 0o644); err != nil {
		t.Fatal(err)
	}
	want := append(append([]Episode(nil), compacted...), tail...)
	j, err := OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Recovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v\nwant %+v", got, want)
	}
	extra := ep("e", 5)
	if err := j.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Recovered(); !reflect.DeepEqual(got, append(want, extra)) {
		t.Fatalf("after append, recovered %+v", got)
	}
}

// TestSyncBoundsPowerCutLoss: appended frames survive a power cut only once
// a Sync or Close covers them; Open recovers exactly the synced prefix.
func TestSyncBoundsPowerCutLoss(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close bool // Close instead of the cut after the third append
		want  int
	}{{"cut", false, 2}, {"close", true, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			ff := vfs.NewFaultFS(vfs.OS)
			path := tmpPath(t)
			j, err := CreateFS(ff, path, "fp")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := j.Append(ep(string(rune('a'+i)), 1)); err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					if err := j.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.close {
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			ff.CutAt(ff.Ops(), 0)
			if _, err := ff.Stat(path); !errors.Is(err, vfs.ErrPowerCut) {
				t.Fatalf("power cut did not fire: %v", err)
			}
			_ = j.Close() // after the cut: nothing more reaches the disk
			r, err := OpenFS(vfs.OS, path, "fp")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := len(r.Recovered()); got != tc.want {
				t.Fatalf("recovered %d episodes, want %d", got, tc.want)
			}
		})
	}
}

// TestOpenStopsAtPayloadRunningIntoNextFrame: two CRC-valid frames whose
// payloads only form a JSON value together must not decode as one record.
func TestOpenStopsAtPayloadRunningIntoNextFrame(t *testing.T) {
	_, data := writeJournal(t, 1)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, payload := range []string{`{"t":"ep","ep":{"key":"b","class":"ok"`, `,"attempts":1}}`} {
		var hdr [frame.HeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(payload), castagnoli))
		data = append(append(data, hdr[:]...), payload...)
	}
	path := tmpPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenFS(vfs.OS, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.Recovered(); len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("recovered %+v, want only episode a", got)
	}
}

func TestClosedJournalRefusesWrites(t *testing.T) {
	path := tmpPath(t)
	j := mustCreate(t, path, "fp")
	j.Close()
	if err := j.Append(ep("a", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// writeJournal builds a journal with n episodes and returns its raw bytes.
func writeJournal(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := tmpPath(t)
	j := mustCreate(t, path, "fp")
	for i := 0; i < n; i++ {
		if err := j.Append(ep(string(rune('a'+i)), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestCorruptionRecovery is the corruption table: every mutilation either
// recovers the intact prefix or fails with a clean typed error — never a
// panic, never silently-wrong episodes.
func TestCorruptionRecovery(t *testing.T) {
	_, data := writeJournal(t, 3)
	// Locate frame boundaries for surgical corruption.
	var bounds []int // offset of each frame start, then len(data)
	for off := 0; off < len(data); {
		bounds = append(bounds, off)
		_, next, err := frame.Next(data, off)
		if err != nil {
			t.Fatal(err)
		}
		off = next
	}
	bounds = append(bounds, len(data))
	if len(bounds) != 5 { // header + 3 episodes + EOF
		t.Fatalf("expected 4 frames, got %d", len(bounds)-1)
	}

	cases := []struct {
		name      string
		mutate    func([]byte) []byte
		recovered int  // episodes expected when err == nil
		corrupt   bool // expect ErrCorrupt
	}{
		{
			name:      "truncated tail mid-frame",
			mutate:    func(b []byte) []byte { return b[:bounds[3]+5] },
			recovered: 2,
		},
		{
			name:      "truncated at frame boundary",
			mutate:    func(b []byte) []byte { return b[:bounds[2]] },
			recovered: 1,
		},
		{
			name: "flipped CRC byte in last episode",
			mutate: func(b []byte) []byte {
				b[bounds[3]+4] ^= 0xff
				return b
			},
			recovered: 2,
		},
		{
			name: "flipped payload byte in middle episode drops the tail",
			mutate: func(b []byte) []byte {
				b[bounds[2]+frame.HeaderLen+2] ^= 0x01
				return b
			},
			recovered: 1,
		},
		{
			name: "zero-length record",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[bounds[3]:bounds[3]+4], 0)
				return b
			},
			recovered: 2,
		},
		{
			name: "implausible record length",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[bounds[3]:bounds[3]+4], 1<<30)
				return b
			},
			recovered: 2,
		},
		{
			name:    "corrupted header frame",
			mutate:  func(b []byte) []byte { b[frame.HeaderLen+1] ^= 0xff; return b },
			corrupt: true,
		},
		{
			name:    "empty file",
			mutate:  func(b []byte) []byte { return nil },
			corrupt: true,
		},
		{
			name:    "garbage file",
			mutate:  func(b []byte) []byte { return []byte("not a journal at all") },
			corrupt: true,
		},
		{
			name: "header frame holds a non-header record",
			mutate: func(b []byte) []byte {
				// Drop the header frame so an episode frame comes first.
				return b[bounds[1]:]
			},
			corrupt: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "mutant.wal")
			buf := append([]byte(nil), data...)
			if err := os.WriteFile(p, tc.mutate(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenFS(vfs.OS, p, "fp")
			if tc.corrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if got := len(j.Recovered()); got != tc.recovered {
				t.Fatalf("recovered %d episodes, want %d", got, tc.recovered)
			}
			// The torn tail was truncated: the journal must accept appends
			// and recover them on the next open.
			if err := j.Append(ep("appended-after-recovery", 7)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, err := OpenFS(vfs.OS, p, "fp")
			if err != nil {
				t.Fatalf("reopen after recovery append: %v", err)
			}
			defer j2.Close()
			rec := j2.Recovered()
			if len(rec) != tc.recovered+1 || rec[len(rec)-1].Key != "appended-after-recovery" {
				t.Fatalf("after recovery append, recovered %d episodes (last %+v)", len(rec), rec[len(rec)-1])
			}
		})
	}
}

// TestEveryPrefixOpensCleanly sweeps every byte-length prefix of a real
// journal, episodes with owner records between them: each either opens (recovering some prefix of the episodes,
// in order) or fails with a clean error, and Scan returns a prefix of the
// owner records, in order. This is the byte-granular version of the crash
// model — a torn write can stop anywhere.
func TestEveryPrefixOpensCleanly(t *testing.T) {
	_, data := writeOwnedJournal(t)
	lastRecovered, lastNotes := -1, -1
	for n := 0; n <= len(data); n++ {
		p := filepath.Join(t.TempDir(), "prefix.wal")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		raw, _, err := Scan(vfs.OS, p, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: unexpected scan error %v", n, err)
		}
		got := notes(t, raw)
		if len(got) < lastNotes {
			t.Fatalf("prefix %d: scanned %d owner records, fewer than a shorter prefix's %d", n, len(got), lastNotes)
		}
		lastNotes = len(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("prefix %d: owner record %d is %d", n, i, v)
			}
		}
		j, err := OpenFS(vfs.OS, p, "fp")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "journal:") {
				t.Fatalf("prefix %d: unexpected error %v", n, err)
			}
			continue
		}
		rec := j.Recovered()
		j.Close()
		if len(rec) < lastRecovered {
			t.Fatalf("prefix %d: recovered %d episodes, shorter than a shorter prefix's %d", n, len(rec), lastRecovered)
		}
		lastRecovered = len(rec)
		for i, e := range rec {
			if e.Key != string(rune('a'+i)) {
				t.Fatalf("prefix %d: episode %d key %q", n, i, e.Key)
			}
		}
	}
	if lastRecovered != 3 || lastNotes != 4 {
		t.Fatalf("full file recovered %d episodes and %d owner records, want 3 and 4", lastRecovered, lastNotes)
	}
}

// note is an owner record for the tests: the journal only stores it.
type note struct {
	N int `json:"n"`
}

// writeOwnedJournal builds the journal a campaign registry keeps: a header
// without a fingerprint, created with an owner record, then episodes with
// owner records between them.
func writeOwnedJournal(t *testing.T) (string, []byte) {
	t.Helper()
	path := tmpPath(t)
	j, err := CreateFS(vfs.OS, path, "", note{0})
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return j.AppendOwner(note{1}) },
		func() error { return j.Append(ep("a", 0)) },
		func() error { return j.Append(ep("b", 1)) },
		func() error { return j.AppendOwner(note{2}) },
		func() error { return j.Append(ep("c", 2)) },
		func() error { return j.AppendOwner(note{3}) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// notes decodes the owner records Scan returns.
func notes(t *testing.T, raw []json.RawMessage) []int {
	t.Helper()
	var out []int
	for _, r := range raw {
		var n note
		if err := json.Unmarshal(r, &n); err != nil {
			t.Fatal(err)
		}
		out = append(out, n.N)
	}
	return out
}

// TestOwnerRecordsBesideEpisodes: replay and the episode count skip owner
// records, Scan returns them in order, a header without a fingerprint
// opens under any, and appends after a reopen land behind both kinds.
func TestOwnerRecordsBesideEpisodes(t *testing.T) {
	path, _ := writeOwnedJournal(t)
	raw, _, err := Scan(vfs.OS, path, nil)
	if err != nil || !reflect.DeepEqual(notes(t, raw), []int{0, 1, 2, 3}) {
		t.Fatalf("Scan: notes %v (%v)", notes(t, raw), err)
	}
	j, err := OpenFS(vfs.OS, path, "any-fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range j.Recovered() {
		keys = append(keys, e.Key)
	}
	if strings.Join(keys, ",") != "a,b,c" {
		t.Fatalf("recovered %v, want the three episodes alone", keys)
	}
	if err := j.AppendOwner(note{4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ep("d", 3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _, err = Scan(vfs.OS, path, nil); err != nil || !reflect.DeepEqual(notes(t, raw), []int{0, 1, 2, 3, 4}) {
		t.Fatalf("after a reopen, Scan found %v (%v)", notes(t, raw), err)
	}
	j, err = OpenFS(vfs.OS, path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	keys = keys[:0]
	for _, e := range j.Recovered() {
		keys = append(keys, e.Key)
	}
	if strings.Join(keys, ",") != "a,b,c,d" {
		t.Fatalf("after a reopen, recovered %v, want the four episodes alone", keys)
	}
}

// TestScanWritesNothing: Scan of a torn journal returns the intact owner
// records and leaves the torn tail for Open to truncate; a zero-length
// file holds no records.
func TestScanWritesNothing(t *testing.T) {
	path, data := writeOwnedJournal(t)
	torn := data[:len(data)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, _, err := Scan(vfs.OS, path, nil)
	if err != nil || !reflect.DeepEqual(notes(t, raw), []int{0, 1, 2}) {
		t.Fatalf("torn journal scanned to %v (%v)", notes(t, raw), err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatal("Scan changed the file")
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if raw, _, err := Scan(vfs.OS, path, nil); err != nil || raw != nil {
		t.Fatalf("zero-length journal scanned to %v, %v", raw, err)
	}
}

// TestHeaderExactImageAndFallback: a header frame in writeFrame's image
// takes exactHeader, and one that is reordered, spaced, escaped or of an
// unknown version goes to json.Unmarshal, which reads the same header.
// Either way Scan returns the owner records behind it and OpenFS recovers
// the episodes and checks the fingerprint.
func TestHeaderExactImageAndFallback(t *testing.T) {
	_, owned := writeOwnedJournal(t)
	_, rest, err := frame.Next(owned, 0)
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, tc := range []struct {
		name, payload string
		exact         bool
		fp            string
	}{
		{"exact", `{"t":"hdr","hdr":{"magic":"csjournal","version":1,"fingerprint":"fp|a=1"}}`, true, "fp|a=1"},
		{"exact, no fingerprint", `{"t":"hdr","hdr":{"magic":"csjournal","version":1,"fingerprint":""}}`, true, ""},
		{"reordered", `{"hdr":{"fingerprint":"fp|a=1","version":1,"magic":"csjournal"},"t":"hdr"}`, false, "fp|a=1"},
		{"spaced", `{ "t" : "hdr", "hdr" : { "magic" : "csjournal", "version" : 1, "fingerprint" : "fp|a=1" } }`, false, "fp|a=1"},
		{"escaped fingerprint", `{"t":"hdr","hdr":{"magic":"csjournal","version":1,"fingerprint":"fp\u003ca"}}`, false, "fp<a"},
		{"version 1.0", `{"t":"hdr","hdr":{"magic":"csjournal","version":1.0,"fingerprint":"fp"}}`, false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, ok := exactHeader([]byte(tc.payload))
			if ok != tc.exact {
				t.Fatalf("exactHeader accepted=%v, want %v", ok, tc.exact)
			}
			var hr record
			jsonErr := json.Unmarshal([]byte(tc.payload), &hr)
			if ok && (jsonErr != nil || hr.Hdr == nil || h != *hr.Hdr) {
				t.Fatalf("exactHeader read %+v, json.Unmarshal %+v (%v)", h, hr.Hdr, jsonErr)
			}
			var hdr [frame.HeaderLen]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(tc.payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(tc.payload), castagnoli))
			data := append(append(hdr[:], tc.payload...), owned[rest:]...)
			path := tmpPath(t)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			raw, _, err := Scan(vfs.OS, path, nil)
			if jsonErr != nil {
				// json.Unmarshal refuses it, and so must the journal.
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Scan of an unreadable header: %v", err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(notes(t, raw), []int{0, 1, 2, 3}) {
				t.Fatalf("Scan: notes %v (%v)", notes(t, raw), err)
			}
			j, err := OpenFS(vfs.OS, path, tc.fp)
			if err != nil {
				t.Fatal(err)
			}
			n := len(j.Recovered())
			_ = j.Close() // only read
			if n != 3 {
				t.Fatalf("recovered %d episodes, want 3", n)
			}
			if tc.fp != "" {
				if _, err := OpenFS(vfs.OS, path, "other"); !errors.Is(err, ErrFingerprint) {
					t.Fatalf("OpenFS under another fingerprint: %v", err)
				}
			}
		})
	}
}
