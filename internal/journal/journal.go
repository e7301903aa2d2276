// Package journal is the crash-safe write-ahead log behind resumable tuning
// campaigns. Real campaigns die mid-run — node preemption, OOM kills, an
// operator's Ctrl-C — and every measurement already paid for is lost with
// them. The journal makes the measurement history durable: the engine
// appends one record per finished evaluation episode *before* the episode's
// effects reach any in-memory state, so a run killed at any instant can be
// replayed deterministically up to its last written record. The engine
// writes no record for what a resumed run recomputes anyway: a constraint
// rejection, or a cancelled abort.
//
// Group commit. Append writes the frame and returns; Sync fsyncs every
// frame written since the last Sync, and Close syncs the unsynced tail. A
// killed process loses nothing it wrote, because the OS still holds the
// bytes. A power cut can lose the unsynced tail, and resume re-measures
// those episodes with the same outcomes. The caller therefore decides when
// to sync: before anything another party can observe depends on a record
// (the engine syncs every few dozen records and before a run returns).
//
// The first failed write or sync is sticky: every later Append,
// AppendOwner and Sync returns it and writes nothing, since a short write
// can leave a torn frame, and replay and Scan stop at the first frame that
// is not intact. A fresh OpenFS truncates the tear and appends again.
//
// On-disk format. The file is a sequence of internal/frame frames:
//
//	[u32le payload length][u32le CRC32C of payload][payload]
//
// The payload is a JSON-encoded tagged record: a header (magic, version,
// campaign fingerprint), an evaluation episode, or an owner record. Owner
// records are opaque JSON values the journal's owner appends beside the
// episodes (the campaign registry keeps a campaign's spec, lifecycle state
// and result in them); replay skips them, and Scan reads them back, into a
// buffer its caller reuses from one journal to the next, without decoding a
// single episode. A header may leave the fingerprint empty, for an owner
// that keeps the campaign identity in its own records. A crash can tear or
// drop only frames after the last Sync; OpenFS verifies every frame's CRC,
// truncates the torn tail back to the last intact record, and leaves the
// handle owing a sync for what it recovered or truncated, which its next
// Sync or Close pays. Corruption of the header itself (or a fingerprint
// that does not match the resuming campaign's configuration) fails cleanly
// — never a panic, and never a silently wrong resume.
// Journals written by older versions may also hold checkpoint frames (the
// compacted history up to that point); OpenFS still decodes them, and
// nothing writes them any more.
//
// The journal is append-only, so the file up to the end of any frame is
// exactly what a kill right after that frame's write leaves behind: the
// crash matrices take their kill points from a finished journal's frame
// boundaries (DESIGN.md §6).
//
// The journal stores measurement *outcomes*, not engine state machines:
// resume works by re-running the (deterministic) campaign from the start
// while the engine serves recorded episodes from the journal instead of the
// objective (see internal/engine and DESIGN.md §6).
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
	"repro/internal/vfs"
)

const (
	// Magic identifies a csTuner campaign journal.
	Magic = "csjournal"
	// Version is the current record-format version.
	Version = 1
)

var (
	// ErrCorrupt is returned when the journal header cannot be trusted.
	// Tail corruption is not an error: torn tails are truncated and the
	// intact prefix recovered.
	ErrCorrupt = errors.New("journal: corrupt journal")
	// ErrFingerprint is returned when the journal was written by a campaign
	// with a different configuration fingerprint: replaying it into the
	// resuming run would silently produce garbage.
	ErrFingerprint = errors.New("journal: campaign fingerprint mismatch")
	// ErrClosed is returned by operations on a closed journal.
	ErrClosed = errors.New("journal: closed")
)

// Episode outcome classes. Cancellation is deliberately absent: a cancelled
// episode is the shutdown itself, charges nothing, and is never journaled.
const (
	ClassOK        = "ok"
	ClassPermanent = "permanent"
	ClassBudget    = "budget"
	// ClassStore marks an episode served from the cross-campaign result
	// store instead of the objective: MS is valid, but the episode
	// charged zero virtual cost. Journaling the hit (rather than the probe)
	// makes resume independent of how the shared store grew since the
	// original run: replay re-serves the recorded hit and never re-probes.
	ClassStore = "store"
)

// Header identifies the campaign a journal belongs to.
type Header struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Fingerprint is an opaque campaign-identity string (stencil, arch,
	// configuration, seed, budget). OpenFS refuses a journal whose
	// fingerprint differs from the resuming campaign's; an empty one
	// matches any.
	Fingerprint string `json:"fingerprint"`
}

// Episode is one durable evaluation-episode record: the outcome of one
// measurement at one setting, exactly as the engine accounted it. Records
// written by older versions may also carry attempts, calls, transient,
// backoff_s and ms_sum; decoding ignores them (DESIGN.md §6).
type Episode struct {
	// Key is the measured setting's space.Setting.Key().
	Key string `json:"key"`
	// Class is the outcome class (ClassOK/Permanent/Budget/Store).
	Class string `json:"class"`
	// MS is the measured kernel time; valid only for ClassOK and ClassStore.
	MS float64 `json:"ms,omitempty"`
	// Err is the failure message for the failure classes.
	Err string `json:"err,omitempty"`
	// CostS is the total virtual cost the engine charged for the episode
	// (compile/run or check cost). Informational: replay recomputes the
	// charge from the same inputs with the engine's constant cost model.
	CostS float64 `json:"cost_s"`
}

// legacyCheckpoint is the part of an older version's checkpoint frame that
// resume needs: the full episode history up to it.
type legacyCheckpoint struct {
	Episodes []Episode `json:"episodes"`
}

// record is the tagged union every frame payload decodes into.
type record struct {
	T     string            `json:"t"` // "hdr", "ep", "owner" or the legacy "ckpt"
	Hdr   *Header           `json:"hdr,omitempty"`
	Ep    *Episode          `json:"ep,omitempty"`
	Owner json.RawMessage   `json:"owner,omitempty"`
	Ckpt  *legacyCheckpoint `json:"ckpt,omitempty"`
}

// ownerFrame is the image an owner record is written in: a record with
// only its tag and the owner's value, which marshals straight into it.
type ownerFrame struct {
	T     string `json:"t"`
	Owner any    `json:"owner"`
}

// ownerPrefix starts every owner record's payload: the tag comes first,
// and no other field is set, so the payload is ownerPrefix, the owner's
// value and a closing brace.
var ownerPrefix = []byte(`{"t":"owner","owner":`)

// Journal is one campaign's crash-safe measurement log. It is safe for
// concurrent use; the engine appends under its own accounting lock, so
// record order matches accounting order.
type Journal struct {
	mu        sync.Mutex
	fs        vfs.FS
	path      string
	f         vfs.File
	recovered []Episode // the history recovered at OpenFS time
	unsynced  bool      // a frame written, or OpenFS's recovery or truncation, awaits a Sync
	closed    bool
	err       error // the first failed write or sync, returned ever after

	// dirSyncErrs counts directory-fsync failures at create. These were
	// once silently dropped; they are now counted so the engine can surface
	// them as a degradation signal — the data is still durable in the file,
	// but the *name* may not survive a power loss. Atomic so the engine can
	// fold it into Stats without nesting locks with j.mu.
	dirSyncErrs atomic.Int64
}

// CreateFS starts a fresh journal at path on fsys, failing if the file
// exists. The header and an owner record for each of owner reach the file
// in one write and one fsync, so a crash leaves either all of them or a
// prefix that holds no complete owner record. A failed create removes the
// file it made.
func CreateFS(fsys vfs.FS, path, fingerprint string, owner ...any) (*Journal, error) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, record{T: "hdr", Hdr: &Header{Magic: Magic, Version: Version, Fingerprint: fingerprint}}); err != nil {
		return nil, err
	}
	for _, v := range owner {
		if err := writeFrame(&buf, ownerFrame{T: "owner", Owner: v}); err != nil {
			return nil, err
		}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	if _, err = f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		// Best-effort cleanup; a file that survives it holds no complete
		// owner record, and OpenOrCreateFS treats a zero-length journal as
		// never created.
		_ = fsys.Remove(path)
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	j := &Journal{fs: fsys, path: path, f: f}
	j.syncDir()
	return j, nil
}

// OpenFS opens an existing journal on fsys for resume: it validates the
// header, rejects a foreign fingerprint (unless either fingerprint is empty,
// which skips the check), replays episode frames (and legacy checkpoints)
// into the recovered history, truncates any torn tail back to the last
// intact frame and positions the file for further appends. It issues no
// fsync: the recovered episodes may still live only in the page cache,
// their writer killed before its next sync, so the handle owes a sync for
// what it recovered or truncated, and its next Sync or Close pays it.
func OpenFS(fsys vfs.FS, path, fingerprint string) (j *Journal, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	defer func() {
		if err != nil {
			_ = f.Close() // the open's error is the one to report
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	hdr, good, err := header(data)
	if err != nil {
		return nil, err
	}
	history, good := replay(data, good)
	if fingerprint != "" && hdr.Fingerprint != "" && hdr.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w:\n  journal: %s\n  campaign: %s", ErrFingerprint, hdr.Fingerprint, fingerprint)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		return nil, fmt.Errorf("journal: seek: %w", err)
	}
	return &Journal{fs: fsys, path: path, f: f, recovered: history, unsynced: len(history) > 0 || good < len(data)}, nil
}

// Scan reads the journal at path for its owner, in one pass over the file
// read into buf (its capacity reused, grown if the file needs more), and
// returns the owner records in the order they were appended, up to the
// first frame that is not intact, behind a header that must be, together
// with the buffer to pass to the next Scan. The records are subslices of
// that buffer: a caller copies out what it keeps before it reuses the
// buffer. Scan decodes no other frame, taking each owner value straight out
// of the payload writeFrame wrote, and writes nothing: a torn tail stays
// until the next OpenFS truncates it. A zero-length file, the trace of a
// create that wrote nothing, holds no records.
func Scan(fsys vfs.FS, path string, buf []byte) ([]json.RawMessage, []byte, error) {
	data, err := readInto(fsys, path, buf[:0])
	if err != nil || len(data) == 0 {
		return nil, data, err
	}
	_, off, err := header(data)
	if err != nil {
		return nil, data, err
	}
	var owned []json.RawMessage
	for off < len(data) {
		payload, next, err := frame.Next(data, off)
		if err != nil {
			break
		}
		if bytes.HasPrefix(payload, ownerPrefix) {
			if len(payload) == len(ownerPrefix) || payload[len(payload)-1] != '}' {
				break // not a payload writeFrame wrote
			}
			owned = append(owned, payload[len(ownerPrefix):len(payload)-1])
		}
		off = next
	}
	return owned, data, nil
}

// readInto appends the whole file at path to buf.
func readInto(fsys vfs.FS, path string, buf []byte) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return buf, err
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(cap(buf), 4096))
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			cerr := f.Close()
			if err == io.EOF {
				err = cerr
			}
			return buf, err
		}
	}
}

// header decodes the header frame that starts data, which must be intact
// and trusted, and returns it with the offset of the next frame.
func header(data []byte) (Header, int, error) {
	payload, next, err := frame.Next(data, 0)
	if err != nil {
		return Header{}, 0, fmt.Errorf("%w: unreadable header frame: %v", ErrCorrupt, err)
	}
	var hr record
	switch {
	case json.Unmarshal(payload, &hr) != nil || hr.T != "hdr" || hr.Hdr == nil:
		return Header{}, 0, fmt.Errorf("%w: first frame is not a journal header", ErrCorrupt)
	case hr.Hdr.Magic != Magic:
		return Header{}, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hr.Hdr.Magic)
	case hr.Hdr.Version > Version || hr.Hdr.Version < 1:
		return Header{}, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hr.Hdr.Version)
	}
	return *hr.Hdr, next, nil
}

// replay recovers the episode history from the frames after the header at
// off, up to the first that is not intact, and returns it with the end of
// the last intact frame. It verifies every frame first, then decodes the
// intact payloads as one stream through a single json.Decoder, which
// allocates far less than a json.Unmarshal per frame.
func replay(data []byte, off int) (history []Episode, good int) {
	type span struct{ end, next int } // payload end in stream, frame end in data
	stream := make([]byte, 0, len(data)-off)
	var spans []span
	for good = off; off < len(data); {
		payload, n, err := frame.Next(data, off)
		if err != nil {
			break // torn or corrupt tail: recover the intact prefix
		}
		stream = append(stream, payload...)
		spans = append(spans, span{end: len(stream), next: n})
		off = n
	}
	dec := json.NewDecoder(bytes.NewReader(stream))
	for _, sp := range spans {
		var r record
		// A CRC-valid but malformed payload must not run on into the next
		// frame: each value has to end exactly at its payload's boundary.
		if err := dec.Decode(&r); err != nil || dec.InputOffset() != int64(sp.end) {
			break
		}
		ok := false
		switch r.T {
		case "ep":
			if ok = r.Ep != nil; ok {
				history = append(history, *r.Ep)
			}
		case "owner":
			ok = r.Owner != nil // the owner's to read (Scan)
		case "ckpt":
			if ok = r.Ckpt != nil; ok {
				// A legacy checkpoint compacts everything before it.
				history = r.Ckpt.Episodes
			}
		}
		if !ok {
			break
		}
		good = sp.next
	}
	return history, good
}

// OpenOrCreateFS resumes the journal at path on fsys when it exists and
// starts a fresh one otherwise — the entry point for "just re-run the same
// command after a crash" campaigns. A zero-length existing file is the
// artifact of a crash between create and the header fsync — zero durable
// frames — so it is removed and recreated rather than rejected as corrupt.
func OpenOrCreateFS(fsys vfs.FS, path, fingerprint string) (*Journal, error) {
	if fi, err := fsys.Stat(path); err == nil {
		if fi.Size() == 0 {
			if err := fsys.Remove(path); err != nil {
				return nil, fmt.Errorf("journal: remove empty journal: %w", err)
			}
			return CreateFS(fsys, path, fingerprint)
		}
		return OpenFS(fsys, path, fingerprint)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: stat: %w", err)
	}
	return CreateFS(fsys, path, fingerprint)
}

// writeFrame appends one record frame, a record or an ownerFrame, at w's
// current position.
func writeFrame(w io.Writer, r any) error {
	if err := frame.Write(w, r); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Append logs one evaluation episode: the frame is written before Append
// returns, so a killed process can always replay the episode. It survives a
// power cut only once a later Sync or Close returns.
func (j *Journal) Append(ep Episode) error { return j.append(record{T: "ep", Ep: &ep}) }

// AppendOwner writes v, JSON-encoded, as one owner record: a frame that
// replay skips and Scan returns. Like Append it is durable once a later
// Sync or Close returns.
func (j *Journal) AppendOwner(v any) error { return j.append(ownerFrame{T: "owner", Owner: v}) }

// append writes r's frame, unless the journal is closed or has failed; a
// failed append is sticky.
func (j *Journal) append(r any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.errLocked(); err != nil {
		return err
	}
	if j.err = writeFrame(j.f, r); j.err != nil {
		return j.err
	}
	j.unsynced = true
	return nil
}

// Err returns what the next Append or Sync returns before writing:
// ErrClosed once the journal is closed, otherwise its sticky failure, or
// nil. The engine asks it before it measures an episode, so that it never
// pays for one the journal cannot record.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errLocked()
}

// errLocked is Err for a caller that holds j.mu.
func (j *Journal) errLocked() error {
	if j.closed {
		return ErrClosed
	}
	return j.err
}

// Sync makes every appended frame durable, and what OpenFS recovered or
// truncated. It fsyncs only when one of them is not yet synced.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

// syncLocked fsyncs unless the journal has failed; a failed fsync sticks.
func (j *Journal) syncLocked() error {
	if j.err != nil || !j.unsynced {
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("journal: sync: %w", err)
		return j.err
	}
	j.unsynced = false
	return nil
}

// Recovered returns the episodes recovered at OpenFS time — the replay set
// a resumed engine consumes. A freshly created journal recovers nothing.
func (j *Journal) Recovered() []Episode {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Episode(nil), j.recovered...)
}

// Close syncs the unsynced tail and releases the file handle, a failed
// journal's too. It returns the sync error or sticky failure first, since
// that is the one that loses records.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.syncLocked()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// syncDir fsyncs the directory containing the journal so its create is
// durable. A failure does not abort the operation — the data
// already hit the file — but it is no longer silently dropped: it is
// counted in dirSyncErrs and surfaced through DirSyncErrs (and from there
// the engine's Stats), because an unsynced directory entry is exactly the
// kind of quiet durability erosion an operator should see.
func (j *Journal) syncDir() {
	if err := vfs.SyncDirOf(j.fs, j.path); err != nil {
		j.dirSyncErrs.Add(1)
	}
}

// DirSyncErrs returns the number of directory-fsync failures so far: a
// created journal whose directory entry may not survive a power loss.
func (j *Journal) DirSyncErrs() int64 { return j.dirSyncErrs.Load() }
