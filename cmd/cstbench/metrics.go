package main

import (
	"time"

	"repro/internal/campaign"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon or the library sees, printed
// by every untraced run and tracked across commits.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "runs/s"},
	{"latency_p50_s", "s"},
	{"latency_p80_s", "s"},
	{"mem_mb", "MB"},
	{"best_ms_geomean", "ms"},
}

// untracked are printed by every untraced run but not tracked across
// commits: failed_share is 0 on every correct run, and attempted/failed carry
// it; cpu_s_per_run varies more between runs on a shared host than any bound
// allows (README.md, Stability).
var untracked = []metricDef{
	{"failed_share", "ratio"},
	{"cpu_s_per_run", "s"},
}

// perLayer are the metrics of a traced run, one group per layer.
var perLayer = []metricDef{
	{"kernel.build_calls", "count"},
	{"kernel.build_us_p50", "us"},
	{"kernel.build_ms_total", "ms"},
	{"sim.run_kernel_us_p50", "us"},
	{"sim.invalid_share", "ratio"},
	{"dataset.fixtures", "count"},
	{"dataset.fixture_ms_p50", "ms"},
	{"core.grouping_ms", "ms"},
	{"core.sampling_ms", "ms"},
	{"core.codegen_ms", "ms"},
	{"core.search_ms", "ms"},
	{"engine.evaluations", "count"},
	{"engine.cache_hits", "count"},
	{"engine.invalid", "count"},
	{"engine.episodes", "count"},
	{"engine.cache_hit_ratio", "ratio"},
	{"journal.syncs", "count"},
	{"journal.sync_ms_total", "ms"},
	{"journal.syncs_per_episode", "ratio"},
	{"journal.bytes", "bytes"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.bytes", "bytes"},
	{"store.open_ms", "ms"},
	{"campaign.queue_ms_p50", "ms"},
	{"campaign.run_ms_p50", "ms"},
	{"campaign.sched_wait_ms_total", "ms"},
	{"campaign.persist_syncs", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.poll_ms_p50", "ms"},
	{"service.requests", "count"},
	{"service.non2xx", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// measured is the outcome of one timed phase.
type measured struct {
	setup   []float64 // seconds, one per repetition of the set-up
	results []result  // every pass, in order
	first   int       // results[:first] is the first pass
	wall    time.Duration
	cpu     time.Duration
}

// endToEndValues computes the end-to-end and the untracked metrics of a
// timed phase with failed of its runs failing their checks.
func endToEndValues(m measured, failed int) map[string]float64 {
	var lat, mem, best []float64
	for _, r := range m.results {
		if r.Err != nil {
			continue
		}
		lat = append(lat, r.Latency)
		mem = append(mem, r.MemMB)
		if r.Found {
			best = append(best, r.BestMS)
		}
	}
	done := float64(len(lat))
	return map[string]float64{
		"setup_s":         median(m.setup),
		"runs_per_s":      done / m.wall.Seconds(),
		"latency_p50_s":   hdQuantile(lat, 0.5),
		"latency_p80_s":   hdQuantile(lat, 0.8),
		"mem_mb":          median(mem),
		"best_ms_geomean": geomean(best),
		"failed_share":    ratio(float64(failed), float64(len(m.results))),
		"cpu_s_per_run":   ratio(m.cpu.Seconds(), done),
	}
}

// traced is everything a traced run gathers.
type traced struct {
	spans       []span
	daemonRoot  int64      // phase.daemon span; 0 for library-tune
	layersRoot  int64      // phase.layers span
	daemonRes   []result   // the daemon phase's results
	layerRuns   []layerRun // engine counters and stage spans per traced run
	storeOpenMS float64
	overhead    float64
}

// layerValues computes the per-layer metrics of a traced run. Counts from
// the daemon (journal, store, campaign, service) come from the daemon phase;
// the CPU layers (kernel, sim, dataset, core, engine) come from the layers
// phase, which runs the same specs to the same canonical results.
func layerValues(t traced) map[string]float64 {
	root := phaseRoots(t.spans)
	byName := func(phase int64) map[string][]span {
		out := map[string][]span{}
		for _, s := range t.spans {
			if root[s.ID] == phase {
				out[s.Name] = append(out[s.Name], s)
			}
		}
		return out
	}
	d, l := byName(t.daemonRoot), byName(t.layersRoot)
	m := map[string]float64{}

	builds := l["kernel.build"]
	m["kernel.build_calls"] = float64(len(builds))
	m["kernel.build_us_p50"] = median(durs(builds, time.Microsecond))
	m["kernel.build_ms_total"] = sum(durs(builds, time.Millisecond))
	m["sim.run_kernel_us_p50"] = median(durs(l["sim.run_kernel"], time.Microsecond))
	m["sim.invalid_share"] = ratio(float64(errs(builds)), float64(len(builds)))

	// Daemon workloads build fixtures up front; library-tune collects its
	// dataset inside core.Tune, which reports it as the "dataset" stage.
	fixtures := durs(l["dataset.fixture"], time.Millisecond)
	var evals, hits, invalid, episodes float64
	for _, r := range t.layerRuns {
		for _, s := range r.spans {
			switch s.Name {
			case "dataset":
				fixtures = append(fixtures, ms(s.Total))
			case "grouping", "sampling", "codegen", "search":
				m["core."+s.Name+"_ms"] += ms(s.Total)
			}
		}
		evals += float64(r.stats.Evaluations)
		hits += float64(r.stats.CacheHits)
		invalid += float64(r.stats.Invalid)
		episodes += float64(r.stats.Evaluations + r.stats.Invalid + r.stats.StoreHits)
	}
	m["dataset.fixtures"] = float64(len(fixtures))
	m["dataset.fixture_ms_p50"] = median(fixtures)
	m["engine.evaluations"], m["engine.cache_hits"], m["engine.invalid"] = evals, hits, invalid
	m["engine.episodes"] = episodes
	m["engine.cache_hit_ratio"] = ratio(hits, hits+episodes)

	syncs := d["disk.journal.sync"]
	m["journal.syncs"] = float64(len(syncs))
	m["journal.sync_ms_total"] = sum(durs(syncs, time.Millisecond))
	m["journal.syncs_per_episode"] = ratio(float64(len(syncs)), episodes)
	m["journal.bytes"] = bytesOf(d["disk.journal.write"])

	var storeHits, storeMiss float64
	var queue, running []float64
	for _, r := range t.daemonRes {
		storeHits += float64(r.StoreHits)
		storeMiss += float64(r.StoreMiss)
		if q, ok := between(r.History, campaign.StatePending, campaign.StateRunning); ok {
			queue = append(queue, q)
		}
		if x, ok := between(r.History, campaign.StateRunning, campaign.StateCompleted); ok {
			running = append(running, x)
		}
	}
	m["store.hits"], m["store.misses"] = storeHits, storeMiss
	m["store.hit_ratio"] = ratio(storeHits, storeHits+storeMiss)
	m["store.bytes"] = bytesOf(d["disk.store.write"])
	m["store.open_ms"] = t.storeOpenMS

	m["campaign.queue_ms_p50"] = median(queue)
	m["campaign.run_ms_p50"] = median(running)
	m["campaign.sched_wait_ms_total"] = ms(selfTimes(t.spans)["campaign.gate"])
	m["campaign.persist_syncs"] = float64(len(d["disk.campaign.sync"]))

	m["service.submit_ms_p50"] = median(durs(d["http.submit"], time.Millisecond))
	m["service.poll_ms_p50"] = median(durs(d["http.poll"], time.Millisecond))
	var requests, non2xx int
	for _, name := range []string{"http.healthz", "http.submit", "http.poll"} {
		requests += len(d[name])
		non2xx += errs(d[name])
	}
	m["service.requests"], m["service.non2xx"] = float64(requests), float64(non2xx)
	m["trace.overhead_ratio"] = t.overhead
	return m
}

// phaseRoots maps every span id to the id of the root span above it.
func phaseRoots(spans []span) map[int64]int64 {
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := make(map[int64]int64, len(spans))
	for _, s := range spans {
		id := s.ID
		for parent[id] != 0 {
			id = parent[id]
		}
		root[s.ID] = id
	}
	return root
}

// between is the time in milliseconds from entering state a to entering b.
func between(h []campaign.Transition, a, b campaign.State) (float64, bool) {
	var ta, tb int64
	for _, t := range h {
		switch t.To {
		case a:
			ta = t.AtUnixNano
		case b:
			tb = t.AtUnixNano
		}
	}
	if ta == 0 || tb == 0 {
		return 0, false
	}
	return float64(tb-ta) / 1e6, true
}

func durs(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

func errs(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Err {
			n++
		}
	}
	return n
}

func bytesOf(spans []span) float64 {
	var n int64
	for _, s := range spans {
		n += s.Bytes
	}
	return float64(n)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
