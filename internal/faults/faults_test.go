package faults

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

func newSim(t testing.TB) (*space.Space, *sim.Simulator) {
	t.Helper()
	sp, err := space.New(stencil.J3D7PT())
	if err != nil {
		t.Fatal(err)
	}
	return sp, sim.New(sp, gpu.A100())
}

func sampleSettings(sp *space.Space, n int, seed int64) []space.Setting {
	rng := rand.New(rand.NewSource(seed))
	out := make([]space.Setting, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sp.Random(rng))
		if i%5 == 4 { // sprinkle in duplicates: batches dedupe by key
			out = append(out, out[len(out)-1].Clone())
		}
	}
	return out
}

func TestInjectorDeterministicForSeed(t *testing.T) {
	sp, s := newSim(t)
	in := sampleSettings(sp, 40, 3)
	cfg := Default()
	cfg.Seed = 11

	type obs struct {
		ms  float64
		err string
	}
	run := func() ([]obs, Counts) {
		inj := New(s, cfg)
		out := make([]obs, 0, 3*len(in))
		for attempt := 0; attempt < 3; attempt++ {
			for _, set := range in {
				ms, err := inj.Measure(set)
				o := obs{ms: ms}
				if err != nil {
					o.err = err.Error()
				}
				out = append(out, o)
			}
		}
		return out, inj.Counts()
	}
	a, ca := run()
	b, cb := run()
	if ca != cb {
		t.Fatalf("counts diverged: %+v vs %+v", ca, cb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	if ca.Transient == 0 || ca.Permanent == 0 {
		t.Fatalf("default config did not exercise fault paths: %+v", ca)
	}
	// A different seed must pick a different fault schedule.
	cfg.Seed = 12
	c, _ := run()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestPermanentFailuresAreStablePerKey(t *testing.T) {
	sp, s := newSim(t)
	inj := New(s, Config{Seed: 5, PermanentRate: 0.3})
	var broken space.Setting
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200 && broken == nil; i++ {
		set := sp.Random(rng)
		if _, err := inj.Measure(set); err != nil {
			broken = set
		}
	}
	if broken == nil {
		t.Fatal("no permanently broken setting found at rate 0.3")
	}
	for i := 0; i < 5; i++ {
		_, err := inj.Measure(broken)
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != KindPermanent {
			t.Fatalf("attempt %d: %v, want permanent fault", i, err)
		}
		if fe.Transient() {
			t.Fatal("permanent fault carries the transient marker")
		}
		if engine.Classify(err) != engine.ClassPermanent {
			t.Fatalf("engine classified permanent fault as %v", engine.Classify(err))
		}
	}
}

func TestTransientCapAllowsEventualSuccess(t *testing.T) {
	sp, s := newSim(t)
	inj := New(s, Config{Seed: 2, TransientRate: 1, MaxTransientPerKey: 3})
	set := sp.Default()
	for i := 0; i < 3; i++ {
		_, err := inj.Measure(set)
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != KindTransient || !fe.Transient() {
			t.Fatalf("attempt %d: %v, want transient fault", i, err)
		}
		if engine.Classify(err) != engine.ClassTransient {
			t.Fatalf("engine classified transient fault as %v", engine.Classify(err))
		}
	}
	ms, err := inj.Measure(set)
	if err != nil || ms <= 0 {
		t.Fatalf("capped transient still failing: %v/%v", ms, err)
	}
}

func TestNoiseBoundedAndPositive(t *testing.T) {
	sp, s := newSim(t)
	cfg := Config{Seed: 4, NoiseFrac: 0.1, NoiseAddMS: 0.02}
	inj := New(s, cfg)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		set := sp.Random(rng)
		clean, err := s.Measure(set)
		if err != nil {
			continue
		}
		noisy, err := inj.Measure(set)
		if err != nil {
			t.Fatalf("noise-only config errored: %v", err)
		}
		lo := clean * (1 - cfg.NoiseFrac)
		hi := clean*(1+cfg.NoiseFrac) + cfg.NoiseAddMS
		if noisy <= 0 || noisy < lo-1e-12 || noisy > hi+1e-12 {
			t.Fatalf("noisy time %v outside [%v, %v] (clean %v)", noisy, lo, hi, clean)
		}
	}
}

func TestHangHonoursContext(t *testing.T) {
	sp, s := newSim(t)
	inj := New(s, Config{Seed: 1, HangRate: 1})
	set := sp.Default()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := inj.MeasureCtx(ctx, set)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang under deadline returned %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("hang outlived its context")
	}
	// Without a cancellable context the hang degrades to a transient error
	// instead of deadlocking.
	_, err = inj.Measure(set)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindHang || !fe.Transient() {
		t.Fatalf("uninterruptible hang returned %v, want degraded transient", err)
	}
}

func TestSlowCallDelaysButSucceeds(t *testing.T) {
	sp, s := newSim(t)
	inj := New(s, Config{Seed: 3, SlowRate: 1, SlowDelay: 2 * time.Millisecond})
	start := time.Now()
	ms, err := inj.Measure(sp.Default())
	if err != nil || ms <= 0 {
		t.Fatalf("slow call = %v/%v", ms, err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("slow call returned before its injected delay")
	}
	if c := inj.Counts(); c.Slow != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestArchitectureSurvivesWrapping(t *testing.T) {
	_, s := newSim(t)
	inj := New(s, Default())
	if arch := sim.ArchOf(inj); arch == nil || arch.Name != "A100" {
		t.Fatalf("arch = %v", arch)
	}
	if inj.Unwrap() != sim.Objective(s) {
		t.Fatal("Unwrap lost the inner objective")
	}
}

// hostileConfig turns on every fault path at high rates.
func hostileConfig() Config {
	return Config{
		Seed:               11,
		TransientRate:      0.25,
		MaxTransientPerKey: 2,
		PermanentRate:      0.10,
		NoiseFrac:          0.05,
		NoiseAddMS:         0.01,
		SlowRate:           0.10,
		SlowDelay:          100 * time.Microsecond,
		HangRate:           0.03,
	}
}

func TestEngineSurvivesHostileObjective(t *testing.T) {
	sp, s := newSim(t)
	inj := New(s, hostileConfig())
	eng := engine.New(inj,
		engine.WithSeed(3),
		engine.WithMeasureTimeout(20*time.Millisecond),
	)
	rng := rand.New(rand.NewSource(17))
	var ok, failed int
	for i := 0; i < 120; i++ {
		if _, err := eng.Measure(sp.Random(rng)); err == nil {
			ok++
		} else {
			failed++
		}
	}
	if ok == 0 {
		t.Fatal("no measurement survived the hostile objective")
	}
	st := eng.Stats()
	if st.Transient == 0 || st.Retries == 0 {
		t.Fatalf("retry path not exercised: %+v", st)
	}
	if _, _, found := eng.Best(); !found {
		t.Fatal("no best setting despite successful measurements")
	}
}
