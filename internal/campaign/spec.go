package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stencil"
	"repro/internal/vfs"
)

// Spec is the durable description of one campaign: everything needed to run
// it — and, because every field is deterministic, to *re*-run it
// byte-identically after a crash. It is persisted as spec.json in the
// campaign's directory at submit time.
type Spec struct {
	// Tenant owns the campaign; budgets and fairness are tenant-scoped.
	Tenant string `json:"tenant"`
	// Weight is the tenant's fair-share weight for this campaign's
	// measurements (<= 0 defaults to 1).
	Weight float64 `json:"weight,omitempty"`
	// Method is one of "cstuner", "opentuner", "garvey", "artemis".
	Method string `json:"method"`
	// Stencil and Arch name the workload (stencil.ByName / gpu.ByName).
	Stencil string `json:"stencil"`
	Arch    string `json:"arch"`
	// DatasetSize is the offline dataset sample count (default 64).
	DatasetSize int `json:"dataset_size,omitempty"`
	// BudgetS is the campaign's virtual tuning budget in seconds; it is
	// also the amount reserved against the tenant's ledger. Required.
	BudgetS float64 `json:"budget_s"`
	// Seed drives the tuner and the fixture's dataset sample.
	Seed int64 `json:"seed"`
	// WarmStart requests up to that many warm-start seeds from the shared
	// result store (0 = cold start). Ignored when the registry has no store.
	WarmStart int `json:"warm_start,omitempty"`
	// WarmKeys are the resolved warm-start setting keys. They are resolved
	// exactly once — on the campaign's first run, before the fingerprint is
	// computed — and persisted, so a restart re-runs with the same seeds
	// even though the shared store has grown since. Never set by the
	// submitter.
	WarmKeys []string `json:"warm_keys,omitempty"`
	// Fingerprint is the journal identity computed on the campaign's first
	// run (harness.CampaignFingerprint) and persisted so a restart can
	// validate the on-disk journal without rebuilding the fixture. Empty
	// until the first run reaches its fixture.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Validate checks the spec against the known methods, stencils and
// architectures, and normalizes defaults in place.
func (s *Spec) Validate() error {
	if s.Tenant == "" {
		return errors.New("campaign: spec needs a tenant")
	}
	if _, err := harness.CampaignTuner(s.Method); err != nil {
		return err
	}
	if stencil.ByName(s.Stencil) == nil {
		return fmt.Errorf("campaign: unknown stencil %q", s.Stencil)
	}
	if _, err := gpu.ByName(s.Arch); err != nil {
		return err
	}
	if s.BudgetS <= 0 {
		return errors.New("campaign: spec needs a positive budget_s (the tenant ledger reserves it)")
	}
	if s.DatasetSize <= 0 {
		s.DatasetSize = 64
	}
	if s.WarmStart < 0 {
		return errors.New("campaign: warm_start must be >= 0")
	}
	if len(s.WarmKeys) > 0 {
		// WarmKeys are resolved by the first run, never submitted: accepting
		// caller-supplied keys would bypass resolution (and the fingerprint
		// discipline built on it). Validate runs at submit time only —
		// restart loads persisted specs, warm keys included, unvalidated.
		return errors.New("campaign: warm_keys are resolved by the registry, not submitted")
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	return nil
}

// fixture builds the spec's tuning fixture. Each run builds its own: specs
// rarely share (stencil, arch, dataset size, seed), and a process-lifetime
// cache would hold one fixture per campaign ever run. Persisted specs load
// unvalidated, so unknown names are errors here too.
func (s *Spec) fixture() (*harness.Fixture, error) {
	st := stencil.ByName(s.Stencil)
	if st == nil {
		return nil, fmt.Errorf("campaign: unknown stencil %q", s.Stencil)
	}
	arch, err := gpu.ByName(s.Arch)
	if err != nil {
		return nil, err
	}
	return harness.NewFixture(st, arch, s.DatasetSize, s.Seed)
}

// persistedState is the state.json payload: the lifecycle position plus the
// settled tenant spend, written atomically at submit, at pause, at resume
// from pause and at the terminal state, so a restart reconstructs both the
// state machine and the ledger.
type persistedState struct {
	State State `json:"state"`
	// SettledS is the virtual spend settled against the tenant ledger when
	// the campaign reached a terminal state (capped at the reservation).
	SettledS    float64      `json:"settled_s,omitempty"`
	Transitions []Transition `json:"transitions"`
}

// jsonFile is one file for writeFileAtomic: its path and the value it holds
// as indented JSON.
type jsonFile struct {
	path string
	v    any
}

// writeFileAtomic writes files, which share one directory, via the
// temp-file + rename + dir-sync dance: every temp file is written and
// fsynced, then each is renamed into place, then one directory fsync makes
// all the renames durable. A kill -9 at any instant leaves each file either
// old and intact or new and intact, never a torn hybrid. A directory-fsync
// failure after the renames does not fail the write (the bytes are durable
// in the files); it bumps dirSyncErrs (when non-nil) so the degradation is
// visible instead of silently dropped.
func writeFileAtomic(fsys vfs.FS, dirSyncErrs *atomic.Int64, files ...jsonFile) error {
	fsys = vfs.Or(fsys) // nil-tolerant: hand-built campaigns default to the real fs
	data := make([][]byte, len(files))
	for i, f := range files {
		b, err := json.MarshalIndent(f.v, "", "  ")
		if err != nil {
			return fmt.Errorf("campaign: marshal %s: %w", filepath.Base(f.path), err)
		}
		data[i] = append(b, '\n')
	}
	// Leftover-tmp cleanup is best-effort everywhere in this helper: the
	// next atomic write reopens a temp file with O_TRUNC, and loads never
	// read *.tmp names.
	removeTmps := func(files []jsonFile) {
		for _, f := range files {
			_ = fsys.Remove(f.path + ".tmp")
		}
	}
	for i, f := range files {
		fh, err := fsys.OpenFile(f.path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			removeTmps(files[:i])
			return fmt.Errorf("campaign: write %s: %w", filepath.Base(f.path), err)
		}
		op := "write"
		_, err = fh.Write(data[i])
		if err == nil {
			op, err = "sync", fh.Sync()
		}
		if cerr := fh.Close(); err == nil && cerr != nil {
			op, err = "close", cerr
		}
		if err != nil {
			removeTmps(files[:i+1])
			return fmt.Errorf("campaign: %s %s: %w", op, filepath.Base(f.path), err)
		}
	}
	for i, f := range files {
		if err := fsys.Rename(f.path+".tmp", f.path); err != nil {
			removeTmps(files[i:])
			return fmt.Errorf("campaign: rename %s: %w", filepath.Base(f.path), err)
		}
	}
	if err := vfs.SyncDirOf(fsys, files[0].path); err != nil && dirSyncErrs != nil {
		dirSyncErrs.Add(1)
	}
	return nil
}

// readJSON reads and unmarshals path into v.
func readJSON(fsys vfs.FS, path string, v any) error {
	data, err := vfs.Or(fsys).ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("campaign: parse %s: %w", filepath.Base(path), err)
	}
	return nil
}
