// Package store is the persistent cross-campaign result store: an
// append-only measurement database shared by every campaign under one
// registry root. csTuner's premise is that measurements are expensive;
// today's campaigns nevertheless start cold even when another campaign
// already paid for the same (architecture, stencil shape, setting) point.
// The store makes those points durable and shareable: an engine consults it
// on a memo-cache miss before measuring, and publishes every successful
// episode back, so overlapping campaigns converge to measuring each distinct
// point once per fleet instead of once per run.
//
// On-disk format. The store is a directory of segment files (*.seg), each a
// sequence of internal/frame frames, the codec the campaign journal uses:
//
//	[u32le payload length][u32le CRC32C of payload][JSON payload]
//
// The first frame is a header {magic "csstore", version}; every further
// frame is one measurement record {composite key, scored ms}. Each process
// appends only to its own segment (created O_EXCL, named by pid), so
// concurrent campaigns sharing one directory never interleave writes into
// one file. Readers load every segment at Open and merge records by minimum
// ms per key — a commutative merge, so segment load order cannot matter.
//
// Unlike the journal the store is a cache, not a ledger: appends are
// buffered and not fsync'd (a crash loses at most the unflushed tail of
// *this process's* records — they are re-measurable), torn tails are
// skipped without truncation (the tail may be a live writer's in-flight
// frame), and a segment whose header frame cannot be trusted is quarantined
// to <name>.bad and skipped rather than failing Open.
//
// The in-memory index is one plain map behind one sync.RWMutex, filled at
// Open by a record decoder that reads Put's own bytes without reflection
// (decode.go), and per-shape key lists keep the warm-start query Best off
// the rest of the index (DESIGN.md §13). Open loads a segment in two
// passes: the first checks every frame and counts the records, so an empty
// index is made once at its final size, and the second decodes them,
// checking a key's arch|shape prefix once per run of keys that share it. A
// probe takes the read lock, so a cross-campaign hit costs about what an
// engine cache hit costs (pinned by BenchmarkStoreLookupHit).
package store

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/frame"
	"repro/internal/vfs"
)

const (
	// Magic identifies a csTuner result-store segment.
	Magic = "csstore"
	// Version is the current record-format version.
	Version = 1

	// flushEvery bounds how many buffered records may sit in the bufio
	// writer before a flush makes them visible to concurrent readers.
	flushEvery = 32
)

// ErrClosed is returned by writes on a closed store.
var ErrClosed = errors.New("store: closed")

// Header identifies a segment file.
type Header struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
}

// Record is one durable measurement: the composite key (arch fingerprint,
// shape fingerprint and setting key joined by '|' — see Key) and the scored
// kernel time.
type Record struct {
	Key string  `json:"key"`
	MS  float64 `json:"ms"`
}

// record is the tagged union every frame payload decodes into.
type record struct {
	T   string  `json:"t"` // "hdr" or "rec"
	Hdr *Header `json:"hdr,omitempty"`
	Rec *Record `json:"rec,omitempty"`
}

// Stats is the store's observability snapshot (the /v1/store endpoint body).
type Stats struct {
	// Keys is the number of distinct composite keys indexed.
	Keys int `json:"keys"`
	// Segments is the number of segment files loaded or created.
	Segments int `json:"segments"`
	// LoadedRecords counts records read from disk at Open.
	LoadedRecords int `json:"loaded_records"`
	// AppendedRecords counts records this process wrote to its own segment.
	AppendedRecords int `json:"appended_records"`
	// SkippedRecords counts the segments whose load stopped early at Open:
	// one per segment that ends in a torn or corrupt frame (a live writer's
	// in-flight frame, or real damage) or holds a record neither decoder
	// accepts, however many frames follow the stop.
	SkippedRecords int `json:"skipped_records,omitempty"`
	// Quarantined lists segment files renamed to .bad at Open.
	Quarantined []string `json:"quarantined,omitempty"`
	// WriteErr is the sticky append failure, if any; the in-memory index
	// keeps serving hits after a write failure.
	WriteErr string `json:"write_err,omitempty"`
	// PutDrops counts Puts whose record reached the in-memory index but was
	// not persisted because the writer was already degraded (sticky
	// WriteErr) — the size of the durability gap a degraded store accrues.
	PutDrops int `json:"put_drops,omitempty"`
	// DirSyncErrs counts directory-fsync failures after quarantine
	// renames: the rename happened, but its directory entry may not survive
	// a power loss.
	DirSyncErrs int `json:"dir_sync_errs,omitempty"`
}

// Store is one shared result database. All methods are safe for concurrent
// use; Get/GetBytes/Contains take only the index's read lock.
type Store struct {
	fs  vfs.FS
	dir string

	// indexMu guards the index and the shape lists. Probes share its read
	// side; Put takes the write side, before and never inside mu.
	indexMu sync.RWMutex
	index   map[string]float64  // composite key → minimum ms
	shapes  map[string][]string // shape fingerprint → its keys, first-stored order

	mu       sync.Mutex
	f        vfs.File
	w        *bufio.Writer
	pending  int
	appended int
	ownMin   map[string]float64 // this process's appended minima; see Put
	writeErr error
	closed   bool

	segments    int
	loaded      int
	skipped     int
	putDrops    int
	dirSyncErrs int
	quarantined []string
}

// Open loads (creating if needed) the store directory: every *.seg segment
// is scanned, records min-merge into the index, and untrustable segments
// are quarantined to .bad. Open never fails on segment content — only on
// filesystem errors for the directory itself.
func Open(dir string) (*Store, error) {
	return OpenFS(vfs.OS, dir)
}

// OpenFS is Open through an explicit filesystem seam.
func OpenFS(fsys vfs.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{
		fs: fsys, dir: dir,
		index: map[string]float64{}, shapes: map[string][]string{},
		ownMin: map[string]float64{},
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	// The load fills the index before the store is shared, so it takes no
	// lock.
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		s.loadSegment(filepath.Join(dir, e.Name()))
	}
	return s, nil
}

// loadSegment min-merges one segment file's records into the index. An
// empty file is a concurrent writer's just-created segment and is skipped
// silently; a non-empty file whose header frame cannot be trusted is
// quarantined; a torn or corrupt tail ends the scan without truncating the
// file (it may be a live writer's partially-flushed frame). A record in
// Put's own image takes decodeRecord's fast path; anything else goes
// through json.Unmarshal, whose verdict decides whether the scan goes on.
// The first of its two passes checks each frame's length and CRC, up to the
// first bad frame; the second decodes the frames the first found intact.
func (s *Store) loadSegment(path string) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		s.quarantine(path, fmt.Sprintf("unreadable: %v", err))
		return
	}
	if len(data) == 0 {
		return
	}
	payload, start, err := frame.Next(data, 0)
	if err != nil {
		s.quarantine(path, fmt.Sprintf("unreadable header frame: %v", err))
		return
	}
	var hr record
	if err := json.Unmarshal(payload, &hr); err != nil || hr.T != "hdr" || hr.Hdr == nil ||
		hr.Hdr.Magic != Magic || hr.Hdr.Version > Version || hr.Hdr.Version < 1 {
		s.quarantine(path, "first frame is not a trusted store header")
		return
	}
	s.segments++
	end, records := start, 0
	for end < len(data) {
		_, n, err := frame.Next(data, end)
		if err != nil {
			break
		}
		end, records = n, records+1
	}
	if len(s.index) == 0 {
		s.index = make(map[string]float64, records)
	}
	// checked is the arch|shape prefix of the last key the fast path
	// accepted: keys come in runs that share one, and its bytes need no
	// second check.
	var checked []byte
	for off := start; off < end; {
		size := int(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+frame.HeaderLen : off+frame.HeaderLen+size]
		off += frame.HeaderLen + size
		if key, ms, ok := decodeRecord(payload, checked); ok {
			s.loadRecord(key, ms)
			checked = key[:prefixLen(key)]
		} else {
			var r record
			if err := json.Unmarshal(payload, &r); err != nil || r.T != "rec" || r.Rec == nil || r.Rec.Key == "" {
				s.skipped++
				return
			}
			s.loadRecord([]byte(r.Rec.Key), r.Rec.MS)
		}
		s.loaded++
	}
	if end < len(data) {
		s.skipped++
	}
}

// loadRecord min-merges one loaded record into the index. The key is
// probed as a byte slice, so only a key new to the index is copied out of
// the segment's bytes.
func (s *Store) loadRecord(key []byte, ms float64) {
	if old, ok := s.index[string(key)]; ok {
		if ms < old {
			s.index[string(key)] = ms
		}
		return
	}
	s.addKeyLocked(string(key), ms)
}

// quarantine renames a damaged segment to <name>.bad so Open keeps working
// and the bytes survive for post-mortem. A rename failure just leaves the
// file in place; it will be re-quarantined on the next Open.
func (s *Store) quarantine(path, reason string) {
	bad := path + ".bad"
	if err := s.fs.Rename(path, bad); err != nil {
		s.quarantined = append(s.quarantined, fmt.Sprintf("%s (rename failed: %v; %s)", filepath.Base(path), err, reason))
		return
	}
	// The directory fsync makes the rename durable. It is best-effort — the
	// renamed bytes are already in the file — but a failure is counted in
	// Stats.DirSyncErrs.
	if err := vfs.SyncDirOf(s.fs, path); err != nil {
		s.dirSyncErrs++
	}
	s.quarantined = append(s.quarantined, fmt.Sprintf("%s: %s", filepath.Base(bad), reason))
}

// insertMin merges (key, ms) into the index keeping the minimum, and
// reports whether the index changed (new key or improvement). The merge is
// commutative and idempotent, which is what makes multi-segment loads
// order-independent.
func (s *Store) insertMin(key string, ms float64) bool {
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	old, ok := s.index[key]
	switch {
	case !ok:
		s.addKeyLocked(key, ms)
	case ms < old:
		s.index[key] = ms
	default:
		return false
	}
	return true
}

// addKeyLocked indexes a key the index does not hold yet and lists it under
// its shape for Best. A key SplitKey cannot split is indexed but never
// listed, as Best never matched one. Callers hold indexMu for writing, or
// are Open filling a store nothing else sees yet.
func (s *Store) addKeyLocked(key string, ms float64) {
	s.index[key] = ms
	if _, shape, _, ok := SplitKey(key); ok {
		s.shapes[shape] = append(s.shapes[shape], key)
	}
}

// Get returns the stored minimum ms for the composite key.
func (s *Store) Get(key string) (float64, bool) {
	s.indexMu.RLock()
	defer s.indexMu.RUnlock()
	ms, ok := s.index[key]
	return ms, ok
}

// GetBytes is Get for a stack-rendered key: the allocation-free probe the
// engine's measurement path uses (the compiler serves m[string(b)] without
// copying the key).
func (s *Store) GetBytes(key []byte) (float64, bool) {
	s.indexMu.RLock()
	defer s.indexMu.RUnlock()
	ms, ok := s.index[string(key)]
	return ms, ok
}

// Contains reports whether the composite key is stored.
func (s *Store) Contains(key string) bool {
	_, ok := s.Get(key)
	return ok
}

// Put publishes one successful measurement. The index updates first (so the
// running process keeps its hit even if the disk misbehaves); a record is
// appended to this process's own segment only when (key, ms) improved on
// everything already stored, which keeps segments min-converging. Disk
// failures are sticky and surface in Stats, never as a Put error: the store
// is a cache, and losing its durability must not fail a campaign. A NaN or
// infinite ms is refused outright: JSON cannot encode it, so writing it
// would degrade the whole store, and a NaN would pin its key for good, as
// no time compares less than it.
func (s *Store) Put(key string, ms float64) {
	if key == "" || math.IsNaN(ms) || math.IsInf(ms, 0) || !s.insertMin(key, ms) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.writeErr != nil {
		// Read-only-degraded: the index above already took the record (hits
		// keep serving), but the durability gap grows — count it.
		s.putDrops++
		return
	}
	// Two Puts of one key can pass insertMin and then take s.mu in either
	// order; the one that comes second must not append a superseded time.
	if old, ok := s.ownMin[key]; ok && old <= ms {
		return
	}
	s.ownMin[key] = ms
	if err := s.ensureWriterLocked(); err != nil {
		s.putDrops++
		return
	}
	if err := writeFrame(s.w, record{T: "rec", Rec: &Record{Key: key, MS: ms}}); err != nil {
		s.writeErr = err
		s.putDrops++
		return
	}
	s.appended++
	s.pending++
	if s.pending >= flushEvery {
		s.flushLocked()
	}
}

// ensureWriterLocked lazily creates this process's own segment. Naming is
// pid + a retry ordinal — no wall clock, no randomness — and O_EXCL makes
// collisions (pid reuse against a stale directory) skip to the next
// ordinal. Callers hold s.mu.
func (s *Store) ensureWriterLocked() error {
	if s.f != nil {
		return nil
	}
	for n := 0; ; n++ {
		path := filepath.Join(s.dir, fmt.Sprintf("seg-%d-%04d.seg", os.Getpid(), n))
		f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			s.writeErr = fmt.Errorf("store: create segment: %w", err)
			return s.writeErr
		}
		w := bufio.NewWriter(f)
		if err := writeFrame(w, record{T: "hdr", Hdr: &Header{Magic: Magic, Version: Version}}); err == nil {
			err = w.Flush()
		}
		if err != nil {
			_ = f.Close()
			// Best-effort: an empty or headerless leftover is skipped (or
			// quarantined) by the next Open, never trusted.
			_ = s.fs.Remove(path)
			s.writeErr = fmt.Errorf("store: segment header: %w", err)
			return s.writeErr
		}
		s.f, s.w = f, w
		s.segments++
		return nil
	}
}

// flushLocked pushes buffered records to the OS so concurrent readers (and
// crashes) see them. No fsync: the store is a cache, and every record is
// re-measurable. Callers hold s.mu.
func (s *Store) flushLocked() {
	if s.w == nil {
		return
	}
	if err := s.w.Flush(); err != nil && s.writeErr == nil {
		s.writeErr = fmt.Errorf("store: flush: %w", err)
	}
	s.pending = 0
}

// Flush makes every appended record visible to other processes.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.flushLocked()
	return s.writeErr
}

// Close flushes and releases this process's segment. The index stays
// readable (probes never touch the writer state), but further Puts are
// refused.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.flushLocked()
	if s.f != nil {
		if err := s.f.Close(); err != nil && s.writeErr == nil {
			s.writeErr = err
		}
	}
	return s.writeErr
}

// Degraded reports whether the store has fallen back to read-only-degraded
// mode: a sticky write failure stopped persistence, while the in-memory
// index keeps serving hits and taking Put records. The engine counts
// publishes dropped this way; the service reports the mode in healthz.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeErr != nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Segments:        s.segments,
		LoadedRecords:   s.loaded,
		AppendedRecords: s.appended,
		SkippedRecords:  s.skipped,
		PutDrops:        s.putDrops,
		DirSyncErrs:     s.dirSyncErrs,
		Quarantined:     append([]string(nil), s.quarantined...),
	}
	if s.writeErr != nil {
		st.WriteErr = s.writeErr.Error()
	}
	s.mu.Unlock()
	s.indexMu.RLock()
	st.Keys = len(s.index)
	s.indexMu.RUnlock()
	return st
}

// Entry is one stored best, with the composite key split into its parts.
type Entry struct {
	Arch    string
	Shape   string
	Setting string // the space.Setting key
	MS      float64
}

// Best returns up to n stored entries for the given shape fingerprint,
// lowest ms first, restricted to one arch fingerprint when arch != "".
// Deterministic: ties break by (arch, setting key), which within one shape
// identify the key. This is the warm-start query: it reads only the shape's
// own key list, never the rest of the index.
func (s *Store) Best(shape, arch string, n int) []Entry {
	if n <= 0 {
		return nil
	}
	s.indexMu.RLock()
	keys := s.shapes[shape]
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		// A listed key is arch|shape|setting with no '|' in arch.
		a := k[:strings.IndexByte(k, '|')]
		if arch == "" || a == arch {
			out = append(out, Entry{Arch: a, Shape: shape, Setting: k[len(a)+len(shape)+2:], MS: s.index[k]})
		}
	}
	s.indexMu.RUnlock()
	slices.SortFunc(out, func(a, b Entry) int {
		if c := cmp.Compare(a.MS, b.MS); c != 0 {
			return c
		}
		if c := strings.Compare(a.Arch, b.Arch); c != 0 {
			return c
		}
		return strings.Compare(a.Setting, b.Setting)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// writeFrame writes one record frame to w.
func writeFrame(w io.Writer, r record) error {
	if err := frame.Write(w, r); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
