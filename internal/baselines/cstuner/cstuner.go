// Package cstuner adapts the csTuner pipeline (internal/core) to the common
// baselines.Tuner interface so the experiment harness can race all four
// auto-tuning methods through identical protocols.
package cstuner

import (
	"context"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// Tuner wraps core.Tune.
type Tuner struct {
	Cfg core.Config
}

// New returns csTuner with the paper's default configuration.
func New() *Tuner { return &Tuner{Cfg: core.DefaultConfig()} }

// Name implements baselines.Tuner.
func (t *Tuner) Name() string { return "cstuner" }

// Tune implements baselines.Tuner.
func (t *Tuner) Tune(ctx context.Context, eng *engine.Engine, ds *dataset.Dataset, seed int64, stop func() bool) error {
	cfg := t.Cfg
	cfg.Seed = seed
	rep, err := core.TuneCtx(ctx, eng, ds, cfg, stop)
	if err != nil && ctx.Err() != nil && rep != nil {
		// A cancelled run ends like a budget stop: its outcome is what the
		// engine measured before the cut.
		return nil
	}
	return err
}

var _ baselines.Tuner = (*Tuner)(nil)
