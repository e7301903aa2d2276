package cstuner

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// The engine refactor must not move a single measurement: these values were
// captured from the pre-engine pipeline (inline caches + harness meter) at
// fixed seeds. A diff here means the evaluation order or cache/budget
// semantics changed — which is a correctness bug, not a tuning difference.
const (
	goldenTune = "TBx=64 TBy=8 TBz=1 useShared=2 useConstant=1 useStreaming=2 " +
		"SD=3 SB=32 UFx=1 UFy=2 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=2 BMz=1 " +
		"useRetiming=2 usePrefetching=2 bestms=1.3795474914"
)

// goldenComparator pins every baseline tuner at three seeds each (budget 40,
// j3d7pt/a100). Seed 3 is the original pre-engine capture; seeds 5 and 9
// were captured from the same pipeline and pin the seed-sensitivity of each
// method, so a drift limited to one seed (an RNG-consumption change) is
// distinguishable from a global measurement drift.
var goldenComparator = map[string]map[int64]string{
	MethodCsTuner: {
		3: "TBx=64 TBy=4 TBz=1 useShared=1 useConstant=1 useStreaming=1 " +
			"SD=1 SB=1 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.8931377432",
		5: "TBx=64 TBy=4 TBz=1 useShared=1 useConstant=1 useStreaming=1 " +
			"SD=1 SB=1 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.8931377432",
		9: "TBx=16 TBy=8 TBz=4 useShared=2 useConstant=1 useStreaming=2 " +
			"SD=1 SB=1 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=2 bestms=1.4466394496",
	},
	MethodGarvey: {
		3: "TBx=64 TBy=4 TBz=1 useShared=1 useConstant=1 useStreaming=1 " +
			"SD=1 SB=1 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.8931377432",
		5: "TBx=64 TBy=4 TBz=1 useShared=1 useConstant=2 useStreaming=1 " +
			"SD=1 SB=1 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.9609613939",
		9: "TBx=128 TBy=4 TBz=1 useShared=1 useConstant=2 useStreaming=1 " +
			"SD=1 SB=1 UFx=1 UFy=1 UFz=1 CMx=2 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.9312112396",
	},
	MethodOpenTuner: {
		3: "TBx=32 TBy=1 TBz=1 useShared=2 useConstant=2 useStreaming=1 " +
			"SD=1 SB=1 UFx=2 UFy=2 UFz=2 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=2 " +
			"useRetiming=2 usePrefetching=1 bestms=1.5684872239",
		5: "TBx=16 TBy=16 TBz=4 useShared=2 useConstant=2 useStreaming=2 " +
			"SD=1 SB=8 UFx=1 UFy=1 UFz=2 CMx=1 CMy=1 CMz=2 BMx=1 BMy=2 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.4029488380",
		9: "TBx=16 TBy=4 TBz=16 useShared=2 useConstant=2 useStreaming=1 " +
			"SD=1 SB=1 UFx=2 UFy=1 UFz=2 CMx=1 CMy=4 CMz=2 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.5459962411",
	},
	MethodArtemis: {
		3: "TBx=32 TBy=2 TBz=1 useShared=1 useConstant=1 useStreaming=2 " +
			"SD=3 SB=32 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.6727884550",
		5: "TBx=32 TBy=2 TBz=1 useShared=1 useConstant=1 useStreaming=2 " +
			"SD=3 SB=32 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.6727884550",
		9: "TBx=32 TBy=2 TBz=1 useShared=1 useConstant=1 useStreaming=2 " +
			"SD=3 SB=32 UFx=1 UFy=1 UFz=1 CMx=1 CMy=1 CMz=1 BMx=1 BMy=1 BMz=1 " +
			"useRetiming=1 usePrefetching=1 bestms=1.6727884550",
	},
}

func goldenFmt(set Setting, ms float64) string {
	return fmt.Sprintf("%v bestms=%.10f", set, ms)
}

func TestGoldenSessionTune(t *testing.T) {
	run := func() string {
		s, err := NewSessionFor("j3d7pt", "a100")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.DatasetSize = 64
		cfg.Seed = 7
		cfg.EmitKernels = false
		rep, err := s.Tune(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Engine.Evaluations == 0 || len(rep.Spans) == 0 {
			t.Fatal("report missing engine stats")
		}
		return goldenFmt(rep.Best, rep.BestMS)
	}
	got := run()
	if got != goldenTune {
		t.Fatalf("Session.Tune drifted from golden:\n got %s\nwant %s", got, goldenTune)
	}
	if again := run(); again != got {
		t.Fatalf("Session.Tune nondeterministic:\n  1st %s\n  2nd %s", got, again)
	}
}

// TestGoldenTuneClockInvariant proves the engine's clock seam carries no
// result weight: the same fixed-seed tune, run through a fake clock that has
// nothing to do with wall time, reproduces the golden report byte-for-byte.
// If any stage ever let a wall-clock read feed a measurement, a seed, or an
// ordering decision, this run would diverge from the default-clock golden.
func TestGoldenTuneClockInvariant(t *testing.T) {
	st := stencil.ByName("j3d7pt")
	if st == nil {
		t.Fatal("unknown stencil j3d7pt")
	}
	arch, err := gpu.ByName("a100")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := space.New(st)
	if err != nil {
		t.Fatal(err)
	}
	clk, reads := engine.FakeClock(time.Millisecond)
	eng := engine.New(sim.New(sp, arch), engine.WithClock(clk))

	cfg := DefaultConfig()
	cfg.DatasetSize = 64
	cfg.Seed = 7
	cfg.EmitKernels = false
	rep, err := core.Tune(eng, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenFmt(rep.Best, rep.BestMS); got != goldenTune {
		t.Fatalf("fake-clock tune drifted from golden:\n got %s\nwant %s", got, goldenTune)
	}
	if reads() == 0 {
		t.Fatal("fake clock never read: timing spans bypassed the seam")
	}
	if len(rep.Spans) == 0 || rep.Overhead.Sampling <= 0 {
		t.Fatalf("overhead accounting lost under fake clock: spans=%v overhead=%+v", rep.Spans, rep.Overhead)
	}
}

func TestGoldenRunComparator(t *testing.T) {
	s, err := NewSessionFor("j3d7pt", "a100")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{MethodCsTuner, MethodGarvey, MethodOpenTuner, MethodArtemis} {
		for _, seed := range []int64{3, 5, 9} {
			set, ms, err := s.RunComparator(method, 40, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", method, seed, err)
			}
			want := goldenComparator[method][seed]
			if got := goldenFmt(set, ms); got != want {
				t.Fatalf("%s seed %d drifted from golden:\n got %s\nwant %s", method, seed, got, want)
			}
		}
	}
}

// tuneReportDigest is the FNV-64a digest of every deterministic field of
// Session.Tune's report over the Table III stencils on both GPUs, at
// DatasetSize 64 and seeds 1 and 2. The engine's CacheHits and SpentS are
// left out: the two GA islands account their episodes in schedule order, so
// those two may differ between identical runs.
const tuneReportDigest = "599508326f27f2aa"

func TestTuneReportDigest(t *testing.T) {
	h := fnv.New64a()
	for _, st := range Suite() {
		for _, arch := range []string{"a100", "v100"} {
			s, err := NewSessionFor(st.Name, arch)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2} {
				cfg := DefaultConfig()
				cfg.DatasetSize = 64
				cfg.Seed = seed
				rep, err := s.Tune(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %s %d: %s %x sampled=%d order=%v evals=%d cuda=%d invalid=%d\n",
					st.Name, arch, seed, rep.Best.Key(), math.Float64bits(rep.BestMS), rep.SampledSize,
					rep.GroupOrder, rep.Evaluations, rep.GeneratedCUDA, rep.Engine.Invalid)
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != tuneReportDigest {
		t.Fatalf("Session.Tune report digest = %s, want %s", got, tuneReportDigest)
	}
}
