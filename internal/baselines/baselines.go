// Package baselines defines the common interface of the comparator
// auto-tuners the paper evaluates csTuner against (Sec. V-A2): OpenTuner,
// Garvey, and Artemis, each re-implemented from its publication in the
// sub-packages.
package baselines

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Tuner is one auto-tuning method. Implementations must honour stop() —
// polled at least once per measurement — so the harness can enforce
// iso-time budgets, must observe ctx between measurements so a caller can
// cancel or deadline a whole tuning session, and must be deterministic for
// a given seed (ctx permitting).
type Tuner interface {
	Name() string
	// Tune searches for the fastest setting, measuring only through eng:
	// the engine's Best, Trajectory and Stats are the run's outcome. ds is
	// the offline stencil dataset; methods that do not use one (OpenTuner,
	// Artemis) ignore it. Tune returns an error only when the method cannot
	// run; a search that was stopped, cancelled or found no valid setting
	// returns nil and leaves the verdict to the caller's engine.
	Tune(ctx context.Context, eng *engine.Engine, ds *dataset.Dataset, seed int64, stop func() bool) error
}
