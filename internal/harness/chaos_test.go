package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/vfs"
)

// chaosConfig is the walker's campaign: small enough that the full fs-op
// enumeration stays walkable, long enough to journal more than two of the
// engine's 32-record sync batches.
func chaosConfig() CampaignConfig {
	return CampaignConfig{
		Method:  "cstuner",
		BudgetS: 100,
		Seed:    5,
	}
}

// chaosGolden runs the chaos campaign once on an op-counting filesystem and
// returns its canonical result and op count. It fails unless the run
// journals more than two sync batches, so the sweeps fault and cut inside
// at least two of them.
func chaosGolden(t *testing.T, fx *Fixture) (string, int64) {
	t.Helper()
	counter := vfs.NewFaultFS(vfs.OS)
	cfg := chaosConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "golden.wal")
	cfg.FS = counter
	golden, err := RunCampaign(context.Background(), fx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	episodes := len(frameCuts(t, cfg.JournalPath)) - 1
	if episodes <= 2*32 {
		t.Fatalf("chaos campaign journaled %d episodes; the sweeps need more than two 32-record batches", episodes)
	}
	t.Logf("golden run: %d episodes, %d fs ops", episodes, counter.Ops())
	return golden.Canonical(), counter.Ops()
}

// runOnFS runs one journaled chaos campaign through fsys (nil = the real
// filesystem) at path.
func runOnFS(fx *Fixture, fsys vfs.FS, path string) (*CampaignResult, error) {
	cfg := chaosConfig()
	cfg.JournalPath = path
	cfg.FS = fsys
	return RunCampaign(context.Background(), fx, cfg)
}

// recoverAndCheck is the walker invariant: after a faulted run, re-running
// on the real filesystem must either resume to the byte-identical golden
// canonical, or fail with a clean journal.ErrCorrupt — in which case
// quarantining the journal and starting fresh must reach the golden result.
// Anything else (a panic, a non-corruption error, a diverging result) is a
// poisoned recovery path.
func recoverAndCheck(t *testing.T, fx *Fixture, path string, want, ctx string) {
	t.Helper()
	res, err := runOnFS(fx, nil, path)
	if err != nil {
		if !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("%s: recovery failed uncleanly: %v", ctx, err)
		}
		// Clean quarantine: drop the untrusted journal, start over.
		_ = os.Remove(path)
		res, err = runOnFS(fx, nil, path)
		if err != nil {
			t.Fatalf("%s: fresh run after quarantine failed: %v", ctx, err)
		}
	}
	if got := res.Canonical(); got != want {
		t.Fatalf("%s: recovered result diverged\n got: %s\nwant: %s", ctx, got, want)
	}
}

// chaosFlavors are the disk-failure classes the walker injects, cycled
// across fault points so every op index is hit by one of them.
var chaosFlavors = []struct {
	name  string
	fault vfs.Fault
}{
	{"eio", vfs.Fault{Err: vfs.EIO()}},
	{"enospc", vfs.Fault{Err: vfs.ENoSpace()}},
	// Short fires only when the swept index lands on a write: half the
	// payload reaches the file before the error — the torn-frame case the
	// journal's CRC framing exists to survive.
	{"short", vfs.Fault{Op: vfs.OpWrite, Err: vfs.EIO(), Short: true}},
}

// TestCampaignFaultPointWalker enumerates every filesystem operation a
// journaled campaign performs, re-runs the campaign with a single injected
// fault at each operation in turn, and asserts the recovery invariant at
// every swept point: the journal left behind resumes byte-identically, or
// quarantines cleanly and a fresh run matches golden.
func TestCampaignFaultPointWalker(t *testing.T) {
	fx := resumeFixture(t)
	want, n := chaosGolden(t, fx)

	stride := int64(1)
	if testing.Short() {
		stride = 5
	}
	var injectedTotal int64
	for i := int64(0); i < n; i += stride {
		fl := chaosFlavors[int(i)%len(chaosFlavors)]
		f := fl.fault
		f.AtIndex = i
		ff := vfs.NewFaultFS(vfs.OS, f)
		path := filepath.Join(t.TempDir(), "walk.wal")
		ctx := fmt.Sprintf("op=%d fault=%s", i, fl.name)

		res, err := runOnFS(fx, ff, path)
		if err == nil {
			// The fault was tolerated (dir-fsync, best-effort cleanup): the
			// run itself must still be semantically golden.
			if got := res.Canonical(); got != want {
				t.Fatalf("%s: tolerated fault changed the result\n got: %s\nwant: %s", ctx, got, want)
			}
		}
		injectedTotal += ff.Injected()
		recoverAndCheck(t, fx, path, want, ctx)
	}
	if injectedTotal == 0 {
		t.Fatal("walker injected nothing; the sweep proved nothing")
	}
}

// TestCampaignPowerLossSweep cuts the power at every fs op index: all
// buffered-but-unsynced bytes vanish (torn in half at keep=0.5 points), the
// run dies, and the machine "restarts" — a clean-FS re-run on the same
// journal must reach the byte-identical golden result or quarantine cleanly.
func TestCampaignPowerLossSweep(t *testing.T) {
	fx := resumeFixture(t)
	want, n := chaosGolden(t, fx)

	stride := int64(2)
	if testing.Short() {
		stride = 9
	}
	keeps := []float64{0, 0.5} // clean cut at the last fsync; torn in-flight frame
	for i := int64(0); i < n; i += stride {
		keep := keeps[int(i/stride)%len(keeps)]
		ff := vfs.NewFaultFS(vfs.OS)
		ff.CutAt(i, keep)
		path := filepath.Join(t.TempDir(), "cut.wal")
		ctx := fmt.Sprintf("cut=%d keep=%g", i, keep)

		res, err := runOnFS(fx, ff, path)
		if err == nil {
			// Power lost after the last semantically-relevant op (e.g. at the
			// final close): the completed run must still be golden.
			if got := res.Canonical(); got != want {
				t.Fatalf("%s: run outlived the cut with a different result", ctx)
			}
		} else if !errors.Is(err, vfs.ErrPowerCut) && !errors.Is(err, vfs.ErrInjected) {
			// The cut may surface wrapped in journal errors; anything that is
			// not rooted in the injected outage is a real bug.
			t.Fatalf("%s: run failed outside the power-cut model: %v", ctx, err)
		}
		recoverAndCheck(t, fx, path, want, ctx)
	}
}
