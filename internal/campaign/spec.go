package campaign

import (
	"errors"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stencil"
)

// Spec is the durable description of one campaign: everything needed to run
// it — and, because every field is deterministic, to *re*-run it
// byte-identically after a crash. Submit records it in the campaign's
// journal.
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
	// run (harness.CampaignFingerprint), which records it in a spec owner
	// record of the campaign's journal; a restart reads it back from there.
	// Empty until the first run reaches its fixture.
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
