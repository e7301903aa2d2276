package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// putImage is the payload Put writes for (key, ms).
func putImage(t testing.TB, key string, ms float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, record{T: "rec", Rec: &Record{Key: key, MS: ms}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[frame.HeaderLen:]
}

// FuzzStoreRecordFastPath checks decodeRecord against encoding/json in both
// directions. Whenever the fast path accepts a payload, json.Unmarshal
// accepts it too, with the same key and a bit-identical ms; and whenever
// json.Unmarshal reads a record whose key json.Marshal writes verbatim, the
// bytes Put writes for that record take the fast path. A checked prefix
// changes no verdict and no result.
func FuzzStoreRecordFastPath(f *testing.F) {
	for _, seed := range []string{
		`{"t":"rec","rec":{"key":"arch:A100|shape:j3d7pt|bx=32,by=4","ms":3.0068784344584887}}`,
		`{"t":"rec","rec":{"key":"arch:A|shape:S|bx=32,by=4","ms":2}}`,
		`{"t":"rec","rec":{"key":"arch:A|shape:S|","ms":2}}`,
		`{"t":"rec","rec":{"key":"arch:A|shape:S|a\u003cb","ms":2}}`,
		`{"t":"rec","rec":{"key":"arch:A|shape:S|a\"b","ms":2}}`,
		`{"t":"rec","rec":{"key":"arch:A|shape:\n|x","ms":2}}`,
		`{"t":"rec","rec":{"key":"a\u003cb|s|x","ms":1}}`, // json.Marshal's escape for '<'
		`{"t":"rec","rec":{"key":"a<b|s|x","ms":1}}`,
		`{"t":"rec","rec":{"key":"a\"b","ms":1}}`,
		`{"t":"rec","rec":{"key":"a\\b","ms":1}}`,
		`{"t":"rec","rec":{"key":"a&b>c","ms":1}}`,
		`{"t":"rec","rec":{"key":"kéy","ms":1}}`,
		"{\"t\":\"rec\",\"rec\":{\"key\":\"k\xff\",\"ms\":1}}", // invalid UTF-8
		"{\"t\":\"rec\",\"rec\":{\"key\":\"k\x01\",\"ms\":1}}",
		`{"t":"rec","rec":{"key":"","ms":1}}`,
		`{"t":"rec","rec":{"key":"k","ms":01}}`,
		`{"t":"rec","rec":{"key":"k","ms":1e400}}`,
		`{"t":"rec","rec":{"key":"k","ms":-0}}`,
		`{"t":"rec","rec":{"key":"k","ms":-1.5E-7}}`,
		`{"t":"rec","rec":{"key":"k","ms":1.}}`,
		`{"t":"rec","rec":{"key":"k","ms":.5}}`,
		`{"t":"rec","rec":{"key":"k","ms":1e}}`,
		`{"t":"rec","rec":{"key":"k","ms":"1"}}`,
		`{"t":"rec","rec":{"key":"k","ms":1} }`,
		`{ "t" : "rec" , "rec" : { "key" : "k" , "ms" : 1 } }`,
		`{"rec":{"ms":1,"key":"k"},"t":"rec"}`,
		`{"T":"rec","REC":{"Key":"k","MS":1}}`,
		`{"t":"rec","rec":{"key":"k","ms":1,"key":"j"}}`,
		`{"t":"hdr","hdr":{"magic":"csstore","version":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r record
		jsonErr := json.Unmarshal(payload, &r)
		key, ms, ok := decodeRecord(payload, nil)
		ckey, cms, cok := decodeRecord(payload, []byte("arch:A|shape:S|"))
		if cok != ok || string(ckey) != string(key) || math.Float64bits(cms) != math.Float64bits(ms) {
			t.Fatalf("a checked prefix changed the fast path's reading of %q: (%q, %v, %v), without (%q, %v, %v)", payload, ckey, cms, cok, key, ms, ok)
		}
		if ok {
			if jsonErr != nil || r.T != "rec" || r.Rec == nil {
				t.Fatalf("fast path accepted %q; json.Unmarshal: %v, %+v", payload, jsonErr, r)
			}
			if r.Rec.Key != string(key) || math.Float64bits(r.Rec.MS) != math.Float64bits(ms) {
				t.Fatalf("fast path read %q as (%q, %v); json.Unmarshal as (%q, %v)", payload, key, ms, r.Rec.Key, r.Rec.MS)
			}
		}
		if jsonErr != nil || r.T != "rec" || r.Rec == nil || r.Rec.Key == "" {
			return
		}
		for _, c := range []byte(r.Rec.Key) {
			if c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
				return // not a key the fast path is for
			}
		}
		img := putImage(t, r.Rec.Key, r.Rec.MS)
		if key, ms, ok := decodeRecord(img, nil); !ok || string(key) != r.Rec.Key || math.Float64bits(ms) != math.Float64bits(r.Rec.MS) {
			t.Fatalf("Put's image %q of a verbatim key missed the fast path: (%q, %v, %v)", img, key, ms, ok)
		}
	})
}

// rawFrame frames a payload exactly as frame.Write does, without
// re-encoding it, so a test can write JSON that json.Marshal never would.
func rawFrame(payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum([]byte(payload), crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

// referenceLoad is the loader before the fast path: every record through
// json.Unmarshal, the first bad one ending the segment, min-merged.
func referenceLoad(t *testing.T, segs [][]byte) (index map[string]float64, loaded, skipped int) {
	t.Helper()
	index = map[string]float64{}
	for _, data := range segs {
		_, next, err := frame.Next(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		for next < len(data) {
			payload, n, err := frame.Next(data, next)
			var r record
			if err == nil {
				err = json.Unmarshal(payload, &r)
			}
			if err != nil || r.T != "rec" || r.Rec == nil || r.Rec.Key == "" {
				skipped++
				break
			}
			if old, ok := index[r.Rec.Key]; !ok || r.Rec.MS < old {
				index[r.Rec.Key] = r.Rec.MS
			}
			loaded++
			next = n
		}
	}
	return index, loaded, skipped
}

// TestStoreLoadMatchesReferenceDecoder pins that Open, fast path and
// fallback together, builds the index the all-json.Unmarshal loader built
// from the same segments: Put's own records, records only the fallback can
// read, keys shared between the two, and a record neither accepts. Two more
// cases pin the prefix check: a key that reuses a checked arch|shape prefix
// and carries an escaped byte after it, and a key whose prefix differs from
// a checked one by a byte json.Marshal escapes.
func TestStoreLoadMatchesReferenceDecoder(t *testing.T) {
	hdr := buildSegment(t)
	segs := [][]byte{
		append(append([]byte(nil), hdr...),
			bytes.Join([][]byte{
				buildSegment(t,
					Record{Key: Key("arch:A", "shape:S", "bx=32,by=4"), MS: 3.0068784344584887},
					Record{Key: Key("arch:A", "shape:S", "bx=64,by=2"), MS: 0.1},
					Record{Key: Key("arch:A", "shape:S", "a<b"), MS: 2}, // json.Marshal escapes '<'
					Record{Key: Key("arch:B", "shape:S", "kéy"), MS: 5},
				)[len(hdr):],
				rawFrame(`{"rec":{"ms":1.5,"key":"arch:A|shape:S|bx=64,by=2"},"t":"rec"}`),
				rawFrame(`{ "t" : "rec" , "rec" : { "key" : "arch:A|shape:S|ws" , "ms" : 4 } }`),
				rawFrame(`{"T":"rec","REC":{"Key":"arch:A|shape:S|case","MS":-0}}`),
				rawFrame(`{"t":"rec","rec":{"key":"arch:A|shape:S|exp","ms":1E+2}}`),
			}, nil)...),
		append(append([]byte(nil), hdr...),
			bytes.Join([][]byte{
				rawFrame(`{"t":"rec","rec":{"key":"arch:A|shape:S|a<b","ms":1}}`),
				rawFrame(`{"t":"rec","rec":{"key":"arch:A|shape:S|exp","ms":99.5}}`),
				rawFrame(`{"t":"rec","rec":{"key":"arch:A|shape:S|bx=32,by=4","ms":01}}`),
				rawFrame(`{"t":"rec","rec":{"key":"arch:A|shape:S|after","ms":1}}`),
			}, nil)...),
	}
	keys, loaded, skipped := checkLoadMatchesReference(t, segs)
	if loaded != 10 || skipped != 1 || keys != 7 {
		t.Fatalf("fixture drifted: reference loaded %d records into %d keys, skipped %d", loaded, keys, skipped)
	}

	for _, tc := range []struct {
		name   string
		frames []string
	}{
		{"escape after a checked prefix", []string{
			`{"t":"rec","rec":{"key":"arch:A|shape:S|bx=1","ms":1}}`,
			`{"t":"rec","rec":{"key":"arch:A|shape:S|a\u003cb","ms":2}}`,
			`{"t":"rec","rec":{"key":"arch:A|shape:S|a\"b","ms":3}}`,
			`{"t":"rec","rec":{"key":"arch:A|shape:S|bx=2","ms":4}}`,
		}},
		{"prefix differs by an escaped byte", []string{
			`{"t":"rec","rec":{"key":"arch:A|shape:ab|x","ms":1}}`,
			`{"t":"rec","rec":{"key":"arch:A|shape:\n|x","ms":2}}`,
			`{"t":"rec","rec":{"key":"arch:A|shape:\"|x","ms":3}}`,
			`{"t":"rec","rec":{"key":"arch:A|shape:ab|y","ms":4}}`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg := append([]byte(nil), hdr...)
			for _, f := range tc.frames {
				seg = append(seg, rawFrame(f)...)
			}
			if keys, loaded, skipped := checkLoadMatchesReference(t, [][]byte{seg}); keys != 4 || loaded != 4 || skipped != 0 {
				t.Fatalf("fixture drifted: reference loaded %d records into %d keys, skipped %d", loaded, keys, skipped)
			}
		})
	}
}

// checkLoadMatchesReference writes segs to a store directory, opens it and
// requires the index and counts referenceLoad builds from the same
// segments. It returns the reference's key, loaded and skipped counts.
func checkLoadMatchesReference(t *testing.T, segs [][]byte) (keys, loaded, skipped int) {
	t.Helper()
	want, wantLoaded, wantSkipped := referenceLoad(t, segs)
	dir := t.TempDir()
	for i, data := range segs {
		if err := os.WriteFile(filepath.Join(dir, "seg-1-000"+strconv.Itoa(i)+".seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenFS(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Keys != len(want) || st.LoadedRecords != wantLoaded || st.SkippedSegments != wantSkipped {
		t.Fatalf("stats %+v; reference loaded %d keys from %d records, skipped %d", st, len(want), wantLoaded, wantSkipped)
	}
	for k, ms := range want {
		if got, ok := s.Get(k); !ok || math.Float64bits(got) != math.Float64bits(ms) {
			t.Errorf("%q = %v,%v; reference %v", k, got, ok, ms)
		}
	}
	return len(want), wantLoaded, wantSkipped
}
