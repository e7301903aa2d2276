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
// On-disk format. The file is a sequence of internal/frame frames:
//
//	[u32le payload length][u32le CRC32C of payload][payload]
//
// The payload is a JSON-encoded tagged record: a header (magic, version,
// campaign fingerprint) or an evaluation episode. A crash can tear or drop
// only frames after the last Sync; Open verifies every frame's CRC,
// truncates the torn tail back to the last intact record, and syncs what it
// recovered. Corruption of the header itself (or a fingerprint that does
// not match the resuming campaign's configuration) fails cleanly — never a
// panic, and never a silently wrong resume. Journals written by older
// versions may also hold checkpoint frames (the compacted history up to
// that point); Open still decodes them, and nothing writes them any more.
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
	// configuration, seed, budget). Open refuses a journal whose
	// fingerprint differs from the resuming campaign's.
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
	// charge from the same inputs, and the cost model is pinned by the
	// campaign fingerprint.
	CostS float64 `json:"cost_s"`
}

// legacyCheckpoint is the part of an older version's checkpoint frame that
// resume needs: the full episode history up to it.
type legacyCheckpoint struct {
	Episodes []Episode `json:"episodes"`
}

// record is the tagged union every frame payload decodes into.
type record struct {
	T    string            `json:"t"` // "hdr", "ep" or the legacy "ckpt"
	Hdr  *Header           `json:"hdr,omitempty"`
	Ep   *Episode          `json:"ep,omitempty"`
	Ckpt *legacyCheckpoint `json:"ckpt,omitempty"`
}

// Journal is one campaign's crash-safe measurement log. It is safe for
// concurrent use; the engine appends under its own accounting lock, so
// record order matches accounting order.
type Journal struct {
	mu        sync.Mutex
	fs        vfs.FS
	path      string
	f         vfs.File
	hdr       Header
	recovered []Episode // the history recovered at Open time
	records   int       // recovered plus appended episodes
	unsynced  bool      // a frame was written since the last Sync
	closed    bool

	// dirSyncErrs counts directory-fsync failures at create. These were
	// once silently dropped; they are now counted so the engine can surface
	// them as a degradation signal — the data is still durable in the file,
	// but the *name* may not survive a power loss. Atomic so the engine can
	// fold it into Stats without nesting locks with j.mu.
	dirSyncErrs atomic.Int64

	// OnAppend, when set, is called (outside locks held by callers, but
	// under the journal's own) after every appended frame is written, with
	// the current record count. Each call is a legal SIGKILL point: the
	// written bytes outlive the process. It exists for crash-matrix tests
	// that snapshot the file at every record; production code leaves it nil.
	OnAppend func(records int)
}

// Create starts a fresh journal at path, failing if the file exists.
func Create(path, fingerprint string) (*Journal, error) {
	return CreateFS(vfs.OS, path, fingerprint)
}

// CreateFS is Create through an explicit filesystem seam.
func CreateFS(fsys vfs.FS, path, fingerprint string) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	j := &Journal{
		fs:   fsys,
		path: path,
		f:    f,
		hdr:  Header{Magic: Magic, Version: Version, Fingerprint: fingerprint},
	}
	if err := writeFrame(f, record{T: "hdr", Hdr: &j.hdr}); err != nil {
		_ = f.Close()
		// Best-effort cleanup of the half-created file; if it survives,
		// OpenOrCreate treats a zero-length journal as never-created.
		_ = fsys.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: sync: %w", err)
	}
	j.syncDir()
	return j, nil
}

// Open opens an existing journal for resume: it validates the header,
// rejects a foreign fingerprint (unless fingerprint is empty, which skips
// the check), replays episode frames (and legacy checkpoints) into the
// recovered history, truncates any torn tail back to the last intact frame,
// syncs the recovered frames, and positions the file for further appends.
func Open(path, fingerprint string) (*Journal, error) {
	return OpenFS(vfs.OS, path, fingerprint)
}

// OpenFS is Open through an explicit filesystem seam.
func OpenFS(fsys vfs.FS, path, fingerprint string) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: read: %w", err)
	}

	// The header frame must be intact and trusted; everything after it is
	// recoverable.
	payload, next, err := frame.Next(data, 0)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%w: unreadable header frame: %v", ErrCorrupt, err)
	}
	var hr record
	if err := json.Unmarshal(payload, &hr); err != nil || hr.T != "hdr" || hr.Hdr == nil {
		_ = f.Close()
		return nil, fmt.Errorf("%w: first frame is not a journal header", ErrCorrupt)
	}
	hdr := *hr.Hdr
	if hdr.Magic != Magic {
		_ = f.Close()
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr.Magic)
	}
	if hdr.Version > Version || hdr.Version < 1 {
		_ = f.Close()
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr.Version)
	}
	if fingerprint != "" && hdr.Fingerprint != fingerprint {
		_ = f.Close()
		return nil, fmt.Errorf("%w:\n  journal: %s\n  campaign: %s", ErrFingerprint, hdr.Fingerprint, fingerprint)
	}

	// Verify every frame up to the first bad one, then decode the intact
	// payloads as one stream through a single json.Decoder, which allocates
	// far less than a json.Unmarshal per frame.
	type span struct{ end, next int } // payload end in stream, frame end in data
	stream := make([]byte, 0, len(data)-next)
	var spans []span
	for off := next; off < len(data); {
		payload, n, err := frame.Next(data, off)
		if err != nil {
			break // torn or corrupt tail: recover the intact prefix
		}
		stream = append(stream, payload...)
		spans = append(spans, span{end: len(stream), next: n})
		off = n
	}
	var history []Episode
	good := next
	dec := json.NewDecoder(bytes.NewReader(stream))
	for _, sp := range spans {
		var r record
		// A CRC-valid but malformed payload must not run on into the next
		// frame: each value has to end exactly at its payload's boundary.
		if err := dec.Decode(&r); err != nil || dec.InputOffset() != int64(sp.end) {
			break
		}
		var err error
		switch r.T {
		case "ep":
			if r.Ep == nil {
				err = fmt.Errorf("episode frame without episode")
			} else {
				history = append(history, *r.Ep)
			}
		case "ckpt":
			if r.Ckpt == nil {
				err = fmt.Errorf("checkpoint frame without checkpoint")
			} else {
				// A legacy checkpoint compacts everything before it.
				history = r.Ckpt.Episodes
			}
		default:
			err = fmt.Errorf("unknown record type %q", r.T)
		}
		if err != nil {
			break
		}
		good = sp.next
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	// The recovered frames may still live only in the page cache — their
	// writer can have been killed before its next sync — and replay is about
	// to publish them to the result store.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: sync: %w", err)
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: seek: %w", err)
	}
	return &Journal{
		fs:        fsys,
		path:      path,
		f:         f,
		hdr:       hdr,
		recovered: history,
		records:   len(history),
	}, nil
}

// OpenOrCreate resumes the journal at path when it exists and starts a
// fresh one otherwise — the ergonomic entry point for "just re-run the
// same command after a crash" campaigns.
func OpenOrCreate(path, fingerprint string) (*Journal, error) {
	return OpenOrCreateFS(vfs.OS, path, fingerprint)
}

// OpenOrCreateFS is OpenOrCreate through an explicit filesystem seam. A
// zero-length existing file is the artifact of a crash between create and
// the header fsync — zero durable frames — so it is removed and recreated
// rather than rejected as corrupt.
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

// writeFrame appends one record frame at w's current position.
func writeFrame(w io.Writer, r record) error {
	if err := frame.Write(w, r); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Append logs one evaluation episode: the frame is written before Append
// returns, so a killed process can always replay the episode. It survives a
// power cut only once a later Sync or Close returns.
func (j *Journal) Append(ep Episode) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := writeFrame(j.f, record{T: "ep", Ep: &ep}); err != nil {
		return err
	}
	j.unsynced = true
	j.records++
	if j.OnAppend != nil {
		//cstlint:allow lockorder(OnAppend's documented contract is test-only, fast, and runs under j.mu by design)
		j.OnAppend(j.records)
	}
	return nil
}

// Sync makes every appended frame durable. It fsyncs only when a frame was
// written since the last Sync.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.unsynced {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.unsynced = false
	return nil
}

// Recovered returns the episodes recovered at Open time — the replay set a
// resumed engine consumes. A freshly created journal recovers nothing.
func (j *Journal) Recovered() []Episode {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Episode(nil), j.recovered...)
}

// Fingerprint returns the campaign fingerprint stored in the header.
func (j *Journal) Fingerprint() string { return j.hdr.Fingerprint }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close syncs the unsynced tail and releases the file handle. It returns
// the sync error first, since that is the one that loses records.
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
