package main

import (
	"fmt"
	"time"

	cstuner "repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

func tuneConfig(seed int64) cstuner.Config {
	cfg := cstuner.DefaultConfig()
	cfg.DatasetSize = datasetSize
	cfg.Seed = seed
	return cfg
}

// sessions holds one public-API session per stencil and arch.
type sessions map[string]*cstuner.Session

func openSessions() (sessions, error) {
	out := sessions{}
	for _, st := range stencils {
		for _, a := range archs {
			s, err := cstuner.NewSessionFor(st, a)
			if err != nil {
				return nil, err
			}
			out[st+"/"+a] = s
		}
	}
	return out, nil
}

// tune is one library-tune run: a Session.Tune call.
func (ss sessions) tune(r run) result {
	res := result{Run: r}
	start := time.Now()
	rep, err := ss[r.Stencil+"/"+r.Arch].Tune(tuneConfig(r.Seed))
	res.Latency = time.Since(start).Seconds()
	fillTune(&res, rep, err)
	return res
}

func fillTune(res *result, rep *core.Report, err error) {
	if err != nil {
		res.Err = err
		return
	}
	res.Found, res.BestMS = rep.Best != nil, rep.BestMS
	if rep.Best != nil {
		res.BestKey = rep.Best.Key()
	}
}

// tune is the traced library-tune run: what Session.Tune runs — core.Tune
// over a fresh simulator with no dataset and no budget — with the simulator
// behind a probe.
func (l *layers) tune(r run) result {
	res := result{Run: r}
	runID := fmt.Sprintf("r%06d", r.Index+1)
	id := l.tr.id()
	start := time.Now()
	rep, err := l.coreTune(r, runID, id)
	fillTune(&res, rep, err)
	end := time.Now()
	res.Latency = end.Sub(start).Seconds()
	l.tr.add(span{ID: id, Name: "layers.tune", Run: runID, Parent: l.phase, Err: err != nil}, start, end)
	var lr layerRun
	if err == nil {
		lr.stats, lr.spans = rep.Engine, rep.Spans
	}
	l.mu.Lock()
	l.runs = append(l.runs, lr)
	l.mu.Unlock()
	return res
}

func (l *layers) coreTune(r run, runID string, parent int64) (*core.Report, error) {
	st := stencil.ByName(r.Stencil)
	if st == nil {
		return nil, fmt.Errorf("unknown stencil %q", r.Stencil)
	}
	arch, err := gpu.ByName(r.Arch)
	if err != nil {
		return nil, err
	}
	sp, err := space.New(st)
	if err != nil {
		return nil, err
	}
	probe := &simProbe{sim: sim.New(sp, arch), tr: l.tr, run: runID, parent: parent}
	return core.Tune(probe, nil, tuneConfig(r.Seed), nil)
}
