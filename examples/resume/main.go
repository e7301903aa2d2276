// Resume: crash-safe tuning. Every measurement episode is write-ahead
// logged to a journal on disk, so a campaign killed at any instant —
// Ctrl-C, preemption, OOM — resumes where it stopped instead of re-paying
// for the measurements it already made.
//
// The demo interrupts a run mid-flight with an aggressive context
// deadline (a stand-in for kill -9: every episode is written to the journal
// before it is accounted, and written bytes outlive a killed process, so
// the two are equivalent), then calls ResumeTune
// again with the same arguments. The resumed run replays every journaled
// episode without touching the simulator and finishes with a report
// identical to an uninterrupted run's.
//
//	go run ./examples/resume
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	cstuner "repro"
)

func main() {
	const (
		stencilName = "helmholtz"
		budgetS     = 30.0 // virtual seconds of compile+run time
	)
	session, err := cstuner.NewSessionFor(stencilName, "a100")
	if err != nil {
		log.Fatal(err)
	}
	cfg := cstuner.DefaultConfig()
	cfg.DatasetSize = 64
	cfg.EmitKernels = false

	dir, err := os.MkdirTemp("", "cstuner-resume")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	// Reference: one uninterrupted run.
	golden, err := session.ResumeTune(context.Background(),
		filepath.Join(dir, "golden.wal"), cfg, budgetS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted: best %.4f ms after %d evaluations\n",
		golden.BestMS, golden.Engine.Evaluations)

	// The same campaign, crashed over and over until it gets through.
	journal := filepath.Join(dir, "campaign.wal")
	crashes := 0
	deadline := 20 * time.Millisecond
	var rep *cstuner.Report
	for {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		rep, err = session.ResumeTune(ctx, journal, cfg, budgetS)
		cancel()
		if err == nil {
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			log.Fatal(err)
		}
		crashes++
		fmt.Printf("  crash %d: killed mid-run, journal holds the progress\n", crashes)
		deadline += 10 * time.Millisecond
	}
	fmt.Printf("after %d crashes:  best %.4f ms after %d evaluations\n",
		crashes, rep.BestMS, rep.Engine.Evaluations)

	if rep.Best.Key() != golden.Best.Key() || rep.BestMS != golden.BestMS {
		log.Fatalf("resumed result diverged from uninterrupted run")
	}
	fmt.Println("resumed result is identical to the uninterrupted run")
}
