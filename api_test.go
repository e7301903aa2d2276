package cstuner

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestSuiteAndLookup(t *testing.T) {
	if len(Suite()) != 8 {
		t.Fatalf("suite size %d", len(Suite()))
	}
	if StencilByName("hypterm") == nil {
		t.Fatal("hypterm missing")
	}
	if StencilByName("nope") != nil {
		t.Fatal("unknown stencil should be nil")
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, A100()); err == nil {
		t.Fatal("nil stencil should error")
	}
	if _, err := NewSession(StencilByName("cheby"), nil); err == nil {
		t.Fatal("nil arch should error")
	}
	if _, err := NewSessionFor("nope", "a100"); err == nil {
		t.Fatal("unknown stencil name should error")
	}
	if _, err := NewSessionFor("cheby", "h100"); err == nil {
		t.Fatal("unknown arch name should error")
	}
	bad := *StencilByName("cheby")
	bad.FLOPs = 0
	if _, err := NewSession(&bad, A100()); err == nil {
		t.Fatal("invalid stencil should error")
	}
}

func TestSessionMeasureAndMetrics(t *testing.T) {
	s, err := NewSessionFor("j3d7pt", "a100")
	if err != nil {
		t.Fatal(err)
	}
	if s.Stencil().Name != "j3d7pt" {
		t.Fatal("wrong stencil")
	}
	set := s.DefaultSetting()
	if err := s.Validate(set); err != nil {
		t.Fatal(err)
	}
	ms, err := s.Measure(set)
	if err != nil || ms <= 0 {
		t.Fatalf("Measure = %v, %v", ms, err)
	}
	ms2, metrics, err := s.Metrics(set)
	if err != nil || ms2 != ms {
		t.Fatalf("Metrics time = %v, %v", ms2, err)
	}
	if len(metrics) < 15 {
		t.Fatalf("only %d metrics", len(metrics))
	}
	src, err := s.EmitCUDA(set)
	if err != nil || !strings.Contains(src, "__global__") {
		t.Fatalf("EmitCUDA: %v", err)
	}
}

func TestSessionTune(t *testing.T) {
	s, err := NewSessionFor("helmholtz", "a100")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DatasetSize = 64
	cfg.Sampling.PoolSize = 512
	cfg.GA.MaxGenerations = 8
	cfg.EmitKernels = false
	rep, err := s.Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == nil || rep.BestMS <= 0 {
		t.Fatal("no result")
	}
	// The tuned kernel must beat the naive default clearly.
	def, err := s.Measure(s.DefaultSetting())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestMS >= def {
		t.Fatalf("tuned %.3f not better than default %.3f", rep.BestMS, def)
	}
	if FormatGroups(rep.Groups) == "" {
		t.Fatal("empty group format")
	}
}

func TestSessionTuneWithBudget(t *testing.T) {
	s, err := NewSessionFor("j3d27pt", "v100")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DatasetSize = 64
	cfg.Sampling.PoolSize = 512
	cfg.EmitKernels = false
	rep, err := s.TuneWithBudget(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	// 20 virtual seconds at 1.5s compile is ~13 evaluations.
	if rep.Evaluations > 20 {
		t.Fatalf("budget ignored: %d evals", rep.Evaluations)
	}
}

func TestRunComparator(t *testing.T) {
	s, err := NewSessionFor("j3d7pt", "a100")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{MethodArtemis, MethodGarvey} {
		set, ms, err := s.RunComparator(method, 20, 3)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if set == nil || ms <= 0 {
			t.Fatalf("%s: degenerate result", method)
		}
		if err := s.Validate(set); err != nil {
			t.Fatalf("%s: invalid setting: %v", method, err)
		}
	}
	if _, _, err := s.RunComparator("banana", 5, 1); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestWriteTableIII(t *testing.T) {
	var buf bytes.Buffer
	WriteTableIII(&buf)
	if !strings.Contains(buf.String(), "addsgd6") {
		t.Fatal("table missing addsgd6")
	}
}

// maxTuneAllocs and maxTuneKB bound the allocations and the allocated
// kilobytes of one rhs4center/a100 Session.Tune at DatasetSize 64 and
// seed 1.
const (
	maxTuneAllocs = 7650
	maxTuneKB     = 2200
)

func TestSessionTuneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	s, err := NewSessionFor("rhs4center", "a100")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DatasetSize = 64
	cfg.Seed = 1
	tune := func() {
		if _, err := s.Tune(cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, tune)
	// Bytes the same way: one goroutine, three tunes after AllocsPerRun's
	// warm-up, averaged.
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		tune()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	if allocs > maxTuneAllocs {
		t.Fatalf("one Session.Tune made %.0f allocations, want at most %d", allocs, maxTuneAllocs)
	}
	if kb > maxTuneKB {
		t.Fatalf("one Session.Tune allocated %.0f KB, want at most %d", kb, maxTuneKB)
	}
	t.Logf("one Session.Tune made %.0f allocations of %.0f KB", allocs, kb)
}
