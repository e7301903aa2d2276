package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration // sets how many whole passes the timed phase runs
	trace    bool
	traceOut string  // where a traced run writes its spans
	root     string  // directory under which registry roots are created
	runs     int     // > 0 keeps only the first runs of every list (smoke tests)
	budgetS  float64 // > 0 overrides the campaigns' virtual budget (smoke tests)
}

// setupReps is how often the set-up is repeated; setup_s is the median.
const setupReps = 5

// campaignBudgetS is every daemon campaign's virtual tuning budget. It sizes
// the daemon workloads; their campaign counts stay fixed.
const campaignBudgetS = 400

func (o options) budget() float64 {
	if o.budgetS > 0 {
		return o.budgetS
	}
	return campaignBudgetS
}

// nominalPassS is how long one pass of each workload takes on the reference
// machine (2 vCPUs); -seconds divided by it, rounded, is the pass count.
var nominalPassS = map[string]float64{daemonCold: 20, daemonWarm: 30, libraryTune: 10}

func (o options) plan(pass int) (*plan, error) {
	p, err := makePlan(o.workload, o.seed, pass)
	if err != nil || o.runs <= 0 {
		return p, err
	}
	p.Prime = p.Prime[:min(o.runs, len(p.Prime))]
	p.Runs = p.Runs[:min(o.runs, len(p.Runs))]
	return p, nil
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload, prints its metrics to w as
// "workload metric value unit" lines and returns the result.
func bench(o options, w io.Writer) (*report, error) {
	p, err := o.plan(0)
	if err != nil {
		return nil, err
	}
	root := filepath.Join(o.root, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root) //cstlint:allow errdrop(scratch registry roots; a leftover is harmless)
	if o.trace {
		return benchTraced(o, p, root, w)
	}
	m, err := measure(o, p, root)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: len(m.results), Metrics: map[string]metric{}}
	rep.Failed = verify(m.results, p.Workload != libraryTune)
	rep.Correct = rep.Failed == 0
	vals := endToEndValues(m, rep.Failed)
	for _, d := range endToEnd {
		rep.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	for _, d := range append(endToEnd, untracked...) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", o.workload, d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(w, "%s runs %d count\n", o.workload, len(m.results))
	fmt.Fprintf(w, "%s canonical_digest %s fnv64\n", o.workload, digest(m.results[:m.first]))
	return rep, nil
}

// measure runs a workload untraced: set-up, then the timed phase.
func measure(o options, p *plan, root string) (measured, error) {
	switch p.Workload {
	case daemonCold:
		return measureDaemon(o, p, setupDirs(root, false), false, true)
	case daemonWarm:
		primed := filepath.Join(root, "primed")
		if err := prime(o, p, primed); err != nil {
			return measured{}, err
		}
		return measureDaemon(o, p, setupDirs(primed, true), true, false)
	}
	return measureLibrary(o, p)
}

// setupDirs lists the registry roots the set-up opens in turn: a fresh root
// under root each time for daemon-cold, the primed root itself every time
// for daemon-warm, whose set-up is the reopen.
func setupDirs(root string, reopen bool) []string {
	dirs := make([]string, setupReps)
	for k := range dirs {
		dirs[k] = root
		if !reopen {
			dirs[k] = filepath.Join(root, fmt.Sprintf("daemon%d", k))
		}
	}
	return dirs
}

// probe is the fixed run every daemon-cold and library-tune set-up ends
// with, so setup_s is the time from a fresh start to a first result. Its
// seed is 0, which no generated run uses, and it does not depend on -seed.
var probe = run{Tenant: "probe", Weight: 1, Method: "cstuner", Stencil: "j3d7pt", Arch: "a100", Seed: 0}

// probeBudgetS is the probe campaign's virtual budget, unless the
// campaigns get a smaller one.
const probeBudgetS = 100

// measureDaemon opens a daemon on each of dirs in turn — the set-up, timed
// each time, ending with a probe campaign when withProbe is set — and drives
// the timed phase through the last one.
func measureDaemon(o options, p *plan, dirs []string, withStore, withProbe bool) (measured, error) {
	var m measured
	var d *daemon
	for k, dir := range dirs {
		start := time.Now()
		var err error
		if d, err = openDaemon(dir, withStore, nil, 0); err != nil {
			return m, err
		}
		if withProbe {
			if err := check(d.campaign(probe, min(probeBudgetS, o.budget())), true); err != nil {
				return m, errors.Join(fmt.Errorf("probe: %w", err), d.close())
			}
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		if k < len(dirs)-1 {
			if err := d.close(); err != nil {
				return m, err
			}
		}
	}
	err := m.passes(o, p, func(q *plan) []result { return d.pass(q, q.Runs, o.budget()) })
	return m, errors.Join(err, d.close())
}

// measureLibrary creates the sessions and tunes the probe — the set-up,
// timed each time — and then runs the timed phase.
func measureLibrary(o options, p *plan) (measured, error) {
	var m measured
	var ss sessions
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		var err error
		if ss, err = openSessions(); err != nil {
			return m, err
		}
		if err := check(ss.tune(probe), false); err != nil {
			return m, fmt.Errorf("probe: %w", err)
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
	}
	err := m.passes(o, p, func(q *plan) []result { return drive(q.Runs, q.Clients, ss.tune) })
	return m, err
}

// passes is the timed phase: whole passes over the workload's balanced mix.
// The number of passes is fixed by o.seconds and the workload's nominal pass
// length, never by how fast the passes go, so every run of a workload does
// the same amount of work.
func (m *measured) passes(o options, first *plan, one func(*plan) []result) error {
	n := max(1, int(math.Round(o.seconds.Seconds()/nominalPassS[first.Workload])))
	cpu0, t0 := cpuTime(), time.Now()
	for pass := 0; pass < n; pass++ {
		q := first
		if pass > 0 {
			var err error
			if q, err = o.plan(pass); err != nil {
				return err
			}
		}
		m.results = append(m.results, one(q)...)
		if pass == 0 {
			m.first = len(m.results)
		}
	}
	m.wall, m.cpu = time.Since(t0), cpuTime()-cpu0
	return nil
}

// prime runs daemon-warm's priming specs into a fresh root and closes it.
func prime(o options, p *plan, dir string) error {
	d, err := openDaemon(dir, true, nil, 0)
	if err != nil {
		return err
	}
	rs := d.pass(p, p.Prime, o.budget())
	err = d.close()
	if n := verify(rs, true); n > 0 {
		return errors.Join(err, fmt.Errorf("%d priming campaigns failed", n))
	}
	return err
}

// verify checks every run and returns how many failed; the first few
// failures are reported on standard error.
func verify(rs []result, daemon bool) int {
	failed := 0
	for _, r := range rs {
		if err := check(r, daemon); err != nil {
			if failed++; failed <= 5 {
				fmt.Fprintln(os.Stderr, "cstbench: check failed:", err)
			}
		}
	}
	return failed
}

// benchTraced is the traced run. It measures the workload's first pass once
// untraced, as the reference for trace.overhead_ratio, then runs the same
// pass traced: through the daemon (daemon workloads; HTTP and disk spans),
// and through the layers the daemon or Session.Tune composes (CPU-layer
// spans). All passes must reach the same canonical results.
func benchTraced(o options, p *plan, root string, w io.Writer) (*report, error) {
	o.seconds = 0 // one pass per phase
	tr := newTracer()
	t := traced{daemonRoot: tr.id(), layersRoot: tr.id()}
	var ref measured
	var resA, resB []result
	var err error
	if p.Workload == libraryTune {
		ref, resB, err = tracedLibrary(o, p, root, tr, &t)
	} else {
		ref, resA, resB, err = tracedDaemon(o, p, root, tr, &t)
	}
	if err != nil {
		return nil, err
	}
	t.spans = tr.snapshot()

	isDaemon := p.Workload != libraryTune
	rep := &report{Attempted: len(ref.results) + len(resA) + len(resB), Metrics: map[string]metric{}}
	rep.Failed = verify(ref.results, isDaemon) + verify(resA, isDaemon) + verify(resB, isDaemon)
	want := digest(ref.results)
	for _, rs := range [][]result{resA, resB} {
		if rs != nil && digest(rs) != want {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "cstbench: traced pass digest %s differs from the untraced %s\n", digest(rs), want)
		}
	}
	rep.Correct = rep.Failed == 0
	vals := layerValues(t)
	for _, d := range perLayer {
		rep.Metrics[d.name] = metric{vals[d.name], d.unit}
		fmt.Fprintf(w, "%s %s %.6g %s\n", o.workload, d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(w, "%s canonical_digest %s fnv64\n", o.workload, want)
	out := o.traceOut
	if out == "" {
		out = filepath.Join(o.root, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}
	if err := writeTrace(out, o.workload, o.seed, t.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s trace %s\n", o.workload, out)
	return rep, nil
}

// tracedDaemon runs a daemon workload's reference pass, its traced daemon
// pass and its layers pass. daemon-warm primes one root and gives each pass
// its own copy, so every pass starts from the same store.
func tracedDaemon(o options, p *plan, root string, tr *tracer, t *traced) (ref measured, resA, resB []result, err error) {
	warm := p.Workload == daemonWarm
	refRoot, dirA, dirB := filepath.Join(root, "ref"), filepath.Join(root, "daemon"), filepath.Join(root, "layers")
	if warm {
		primed := filepath.Join(root, "primed")
		if err = prime(o, p, primed); err != nil {
			return
		}
		for _, c := range [][2]string{{primed, refRoot}, {primed, dirA}, {filepath.Join(primed, "store"), filepath.Join(dirB, "store")}} {
			if err = copyTree(c[0], c[1]); err != nil {
				return
			}
		}
	}
	if ref, err = measureDaemon(o, p, setupDirs(refRoot, warm), warm, !warm); err != nil {
		return
	}

	start := time.Now()
	d, err := openDaemon(dirA, warm, tr, t.daemonRoot)
	if err != nil {
		return
	}
	passStart := time.Now()
	resA = d.pass(p, p.Runs, o.budget())
	t.overhead = time.Since(passStart).Seconds() / ref.wall.Seconds()
	if err = d.close(); err != nil {
		return
	}
	tr.add(span{ID: t.daemonRoot, Name: "phase.daemon"}, start, time.Now())
	t.daemonRes = resA

	start = time.Now()
	l := newLayers(dirB, tr, t.layersRoot, o.budget())
	if warm {
		openStart := time.Now()
		if l.store, err = store.OpenFS(l.disk, filepath.Join(dirB, "store")); err != nil {
			return
		}
		t.storeOpenMS = ms(time.Since(openStart))
	}
	resB = drive(p.Runs, p.Clients, l.campaign)
	if l.store != nil {
		if err = l.store.Close(); err != nil {
			return
		}
	}
	tr.add(span{ID: t.layersRoot, Name: "phase.layers"}, start, time.Now())
	t.layerRuns = l.runs
	return
}

// tracedLibrary runs library-tune's reference pass and its layers pass.
func tracedLibrary(o options, p *plan, root string, tr *tracer, t *traced) (ref measured, resB []result, err error) {
	if ref, err = measureLibrary(o, p); err != nil {
		return
	}
	start := time.Now()
	l := newLayers(filepath.Join(root, "layers"), tr, t.layersRoot, 0)
	resB = drive(p.Runs, p.Clients, l.tune)
	t.overhead = time.Since(start).Seconds() / ref.wall.Seconds()
	tr.add(span{ID: t.layersRoot, Name: "phase.layers"}, start, time.Now())
	t.layerRuns = l.runs
	return
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
