package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes this test binary run the command itself, on the
// arguments it was started with (TestMain).
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// quickDigest is the FNV-64a digest of what `experiments -all -quick`
// prints, but for Fig. 12's rows: every table, figure and ablation row.
// One goroutine measures, so those are a pure function of the code; Fig.
// 12's are wall-clock times. A change meant to move a figure updates it,
// with results_full.txt and results_ablation.txt.
const quickDigest = "4ff0d343bc2e1e78"

// TestQuickOutputDigest pins quickDigest, so a change that claims to
// leave the paper's numbers alone is checked on every figure.
func TestQuickOutputDigest(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-all", "-quick")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments -all -quick: %v", err)
	}
	h := fnv.New64a()
	var kept strings.Builder
	dropped := 0
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if strings.HasPrefix(line, "Fig12 ") {
			dropped++
			continue
		}
		kept.WriteString(line)
	}
	h.Write([]byte(kept.String()))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != quickDigest || dropped != 3 {
		t.Fatalf("experiments -all -quick digest = %s after dropping %d Fig. 12 rows, want %s after 3; the output kept:\n%s",
			got, dropped, quickDigest, kept.String())
	}
}
