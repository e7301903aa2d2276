// Command cstbench is the end-to-end benchmark of the tuning daemon and the
// tuning library. It generates each workload's inputs from a seed, drives
// the program only through its public functions, checks every output, and
// prints each metric as a "workload metric value unit" line, followed by one
// JSON result line. A traced run (-trace 1) prints the per-layer metrics
// instead and writes its spans to a JSON file. See README.md.
//
//	cstbench -workload daemon-cold -seed 1 -seconds 20 -trace 0
//	cstbench -seed 1    # every workload, each in its own process
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: daemon-cold, daemon-warm or library-tune (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed phase: it runs this divided by the workload's nominal pass length, rounded, whole passes (at least one)")
	flag.IntVar(&trace, "trace", 0, "1 runs traced: per-layer metrics and a span trace instead of the end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span trace file of a traced run (default <root>/trace-<workload>-<seed>.json)")
	flag.StringVar(&o.root, "root", ".bench_build/runs", "directory for the registry roots, removed after each run, and for traces")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace != 0
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}

	if o.workload == "" {
		os.Exit(runAll(o, seconds, trace))
	}
	rep, err := bench(o, os.Stdout)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cstbench: "+format+"\n", args...)
	os.Exit(2)
}

func printReport(rep *report) {
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a child process of its own, so memory and
// caches do not carry from one workload into the next, and merges their
// results; metric names gain the workload as a prefix.
func runAll(o options, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	all := &report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadNames {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-root", o.root}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var rep report
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
			fmt.Fprintf(os.Stderr, "cstbench: %s: no result (%v)\n", w, err)
			all.Correct = false
			continue
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		all.Correct = all.Correct && rep.Correct && err == nil
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, v := range rep.Metrics {
			all.Metrics[w+"."+k] = v
		}
	}
	printReport(all)
	if !all.Correct {
		return 1
	}
	return 0
}
