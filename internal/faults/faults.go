// Package faults is a composable, deterministic fault-injecting wrapper
// around any sim.Objective — the adversarial testbed the evaluation engine
// is hardened against. Real auto-tuning runs are dominated by hostile
// measurements (failed compiles, crashed kernels, slow devices, noisy
// timers); the injector reproduces them, seeded, so the engine's
// retry/quarantine behaviour can be pinned by deterministic tests. Slow
// calls are the only context-aware fault: they end early with the run
// context's error when it is cancelled.
//
// Every injection decision is a pure function of (seed, setting key,
// per-key attempt number). The injector serializes only the per-key attempt
// counters, so any order of measurements, and any goroutines making them,
// observe exactly the same fault sequence per setting.
package faults

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
)

// Kind is the category of one injected fault.
type Kind int

const (
	// KindTransient is a one-off measurement failure (flaky compile,
	// crashed run); a retry of the same setting may succeed.
	KindTransient Kind = iota
	// KindPermanent marks a setting that fails every time (deterministic
	// compile error): a fixed pseudo-random slice of the space.
	KindPermanent
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPermanent:
		return "permanent"
	}
	return "unknown"
}

// Error is one injected failure. Transient errors carry the engine's
// TransientError marker so they are retried; permanent errors do not, so
// the engine caches and quarantines them.
type Error struct {
	Kind    Kind
	Key     string
	Attempt int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s failure (attempt %d)", e.Kind, e.Attempt)
}

// Transient implements engine.TransientError.
func (e *Error) Transient() bool { return e.Kind != KindPermanent }

// Config selects which faults to inject and how often. All rates are
// probabilities in [0, 1] evaluated independently per measurement attempt
// (permanent failures: per setting).
type Config struct {
	// Seed drives every injection decision.
	Seed uint64
	// TransientRate is the probability a given attempt fails transiently.
	TransientRate float64
	// MaxTransientPerKey caps injected transient failures per setting, so
	// retried settings eventually measure; 0 means unlimited.
	MaxTransientPerKey int
	// PermanentRate is the fraction of settings that always fail.
	PermanentRate float64
	// NoiseFrac is the ± relative amplitude of multiplicative timing noise.
	NoiseFrac float64
	// NoiseAddMS is the amplitude of additive timing noise, in milliseconds.
	NoiseAddMS float64
	// SlowRate is the probability an attempt is delayed by SlowDelay of
	// real wall-clock time before measuring.
	SlowRate float64
	// SlowDelay is the injected latency for slow calls.
	SlowDelay time.Duration
}

// Default returns a moderately hostile testbed: frequent transient
// failures (capped so searches converge), a slice of permanently-broken
// settings, and 5% timing noise.
func Default() Config {
	return Config{
		TransientRate:      0.15,
		MaxTransientPerKey: 4,
		PermanentRate:      0.05,
		NoiseFrac:          0.05,
	}
}

// Counts is the injector's observation log, for asserting that a test
// actually exercised the fault paths it meant to.
type Counts struct {
	Calls     int
	Transient int
	Permanent int
	Slow      int
}

// Injector wraps an objective with seeded fault injection. It is safe for
// concurrent use.
type Injector struct {
	inner sim.Objective
	cfg   Config

	mu       sync.Mutex
	attempts map[string]int
	counts   Counts
}

// New wraps inner with the given fault configuration.
func New(inner sim.Objective, cfg Config) *Injector {
	return &Injector{inner: inner, cfg: cfg, attempts: map[string]int{}}
}

// Space implements sim.Objective.
func (in *Injector) Space() *space.Space { return in.inner.Space() }

// Architecture forwards the wrapped objective's GPU model so codegen
// survives fault wrapping.
func (in *Injector) Architecture() *gpu.Arch { return sim.ArchOf(in.inner) }

// Unwrap returns the inner objective.
func (in *Injector) Unwrap() sim.Objective { return in.inner }

// RestoreAttempts implements engine.AttemptRestorer: a resumed campaign
// feeds back the per-setting objective-call counts its journal recorded, so
// injection decisions — pure functions of (seed, key, attempt) — continue
// exactly where the crashed run stopped instead of restarting every
// setting's fault sequence from attempt zero. Counts are max-merged, so
// restoring over a warm injector never rewinds it.
func (in *Injector) RestoreAttempts(calls map[string]int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for k, n := range calls {
		if n > in.attempts[k] {
			in.attempts[k] = n
		}
	}
}

// Counts returns a snapshot of the injection counters.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// Measure implements sim.Objective: MeasureCtx without a run context.
func (in *Injector) Measure(s space.Setting) (float64, error) {
	return in.MeasureCtx(context.Background(), s)
}

// Salts decorrelate the per-decision hash streams.
const (
	saltPermanent = 0xf0a1
	saltTransient = 0xf0a3
	saltSlow      = 0xf0a4
	saltNoiseMul  = 0xf0a5
	saltNoiseAdd  = 0xf0a6
)

// MeasureCtx implements engine.CtxObjective: one measurement attempt with
// fault injection, honouring ctx for slow calls.
func (in *Injector) MeasureCtx(ctx context.Context, s space.Setting) (float64, error) {
	key := s.Key()
	in.mu.Lock()
	attempt := in.attempts[key]
	in.attempts[key]++
	in.counts.Calls++
	in.mu.Unlock()

	// Permanent failures depend on the key alone: the same slice of the
	// space is broken on every attempt, forever.
	if in.cfg.PermanentRate > 0 && in.u(key, 0, saltPermanent) < in.cfg.PermanentRate {
		in.count(func(c *Counts) { c.Permanent++ })
		return 0, &Error{Kind: KindPermanent, Key: key, Attempt: attempt}
	}
	if in.cfg.TransientRate > 0 &&
		(in.cfg.MaxTransientPerKey <= 0 || attempt < in.cfg.MaxTransientPerKey) &&
		in.u(key, attempt, saltTransient) < in.cfg.TransientRate {
		in.count(func(c *Counts) { c.Transient++ })
		return 0, &Error{Kind: KindTransient, Key: key, Attempt: attempt}
	}
	if in.cfg.SlowRate > 0 && in.cfg.SlowDelay > 0 && in.u(key, attempt, saltSlow) < in.cfg.SlowRate {
		in.count(func(c *Counts) { c.Slow++ })
		t := time.NewTimer(in.cfg.SlowDelay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return 0, ctx.Err()
		}
	}

	ms, err := in.inner.Measure(s)
	if err != nil {
		return 0, err
	}
	if in.cfg.NoiseFrac > 0 {
		ms *= 1 + in.cfg.NoiseFrac*(2*in.u(key, attempt, saltNoiseMul)-1)
	}
	if in.cfg.NoiseAddMS > 0 {
		ms += in.cfg.NoiseAddMS * in.u(key, attempt, saltNoiseAdd)
	}
	if ms <= 0 {
		ms = 1e-9 // noise must never fabricate a non-positive kernel time
	}
	return ms, nil
}

func (in *Injector) count(f func(*Counts)) {
	in.mu.Lock()
	//cstlint:allow lockorder(count's callers are all in this file and pass short counter-increment closures)
	f(&in.counts)
	in.mu.Unlock()
}

// u returns a deterministic uniform in [0, 1) for one injection decision:
// a pure function of (seed, key, attempt, salt).
func (in *Injector) u(key string, attempt int, salt uint64) float64 {
	h := stats.Mix64(in.cfg.Seed ^ salt)
	h = stats.Mix64(h ^ stats.KeyHash(key))
	h = stats.Mix64(h ^ uint64(attempt+1))
	return float64(h>>11) / float64(1<<53)
}

var (
	_ sim.Objective          = (*Injector)(nil)
	_ sim.ArchProvider       = (*Injector)(nil)
	_ engine.CtxObjective    = (*Injector)(nil)
	_ engine.TransientError  = (*Error)(nil)
	_ engine.AttemptRestorer = (*Injector)(nil)
)
