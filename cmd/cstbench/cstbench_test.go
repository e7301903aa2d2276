package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at 2 runs and a tiny budget, untraced and
// traced. Every metric BENCHMARK.json names must be printed with its unit and
// reported in the result line, and every span of the trace must hang off an
// existing parent.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}

	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			o := options{workload: w, seed: 1, trace: traced, root: dir,
				traceOut: filepath.Join(dir, "trace.json"), runs: 2, budgetS: 10}
			var out bytes.Buffer
			rep, err := bench(o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
				t.Fatalf("%s traced=%v: %+v", w, traced, rep)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				if !hasLine(out.String(), w+" "+m.Name+" ", " "+m.Unit) {
					t.Errorf("%s traced=%v: no %q line with unit %s in\n%s", w, traced, m.Name, m.Unit, out.String())
				}
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal(line, &top); err != nil || len(top) != 4 {
				t.Errorf("result line %s has keys %v", line, top)
			}
			if traced {
				checkTrace(t, o.traceOut)
			}
		}
	}
}

func hasLine(out, prefix, suffix string) bool {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, suffix) {
			return true
		}
	}
	return false
}

// checkTrace: every span's parent exists; only phase roots have none.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, s := range tf.Spans {
		ids[s.ID] = true
	}
	for _, s := range tf.Spans {
		switch {
		case s.Parent == 0 && !strings.HasPrefix(s.Name, "phase."):
			t.Errorf("span %d %s has no parent", s.ID, s.Name)
		case s.Parent != 0 && !ids[s.Parent]:
			t.Errorf("span %d %s names missing parent %d", s.ID, s.Name, s.Parent)
		case s.End < s.Start:
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
	}
	if len(tf.Spans) < 10 {
		t.Errorf("trace holds only %d spans", len(tf.Spans))
	}
}

// TestSelfTime: a span's self time excludes the union of its children,
// clipped to its own interval.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self["root"] != 50 || self["a"] != 50 || self["b"] != 30 {
		t.Fatalf("self times %v, want root 50, a 50, b 30", self)
	}
}
