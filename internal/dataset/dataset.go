// Package dataset collects and stores the small-scale performance dataset
// that seeds the csTuner pipeline (paper Sec. IV-A): a random sample of
// parameter settings, each measured once on the target GPU with its full
// Nsight-style metric report. Parameter grouping reads the best setting and
// the pair sweeps from it; PMNF fitting reads the metric columns.
package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
)

// Sample is one measured setting.
type Sample struct {
	Setting space.Setting      `json:"setting"`
	TimeMS  float64            `json:"time_ms"`
	Metrics map[string]float64 `json:"metrics"`
}

// Dataset is the performance dataset for one (stencil, architecture) pair.
type Dataset struct {
	Stencil string   `json:"stencil"`
	Arch    string   `json:"arch"`
	Samples []Sample `json:"samples"`
}

// Runner is the measurement surface Collect needs: the simulator implements
// it; tests can substitute doubles. Run may not keep its argument when it
// fails: Collect draws the next setting into the same memory.
type Runner interface {
	Run(s space.Setting) (*sim.Result, error)
	Space() *space.Space
}

// Collect randomly samples the constrained space until n valid settings have
// been measured (deduplicated by setting), giving up after 1000·n draws.
//
// The kept settings share one array, and each draw is made into the next
// free slot of it: a draw that repeats a kept setting, or that r fails to
// run, leaves its slot to the next draw, so only kept settings take
// memory. The kept settings are looked up in a space.Coded, so no draw
// renders a key.
func Collect(r Runner, rng *stats.Rand, n int) (*Dataset, error) {
	if n <= 0 {
		return nil, errors.New("dataset: non-positive sample count")
	}
	sp := r.Space()
	ds := &Dataset{Samples: make([]Sample, 0, n)}
	if sp.Stencil != nil {
		ds.Stencil = sp.Stencil.Name
	}
	kept := sp.NewCoded(n)
	free := make([]int, n*sp.N())
	for tries := 0; len(ds.Samples) < n && tries < 1000*n; tries++ {
		set := space.Setting(free[:sp.N():sp.N()])
		sp.RandomInto(set, rng)
		if kept.Has(set) {
			continue
		}
		res, err := r.Run(set)
		if err != nil {
			continue // implicit-constraint rejects are expected
		}
		if _, err := kept.Add(set); err != nil {
			return nil, err
		}
		free = free[sp.N():]
		ds.Samples = append(ds.Samples, Sample{
			Setting: set,
			TimeMS:  res.TimeMS,
			Metrics: res.Metrics,
		})
	}
	if len(ds.Samples) < n {
		return nil, fmt.Errorf("dataset: collected only %d/%d samples within try budget", len(ds.Samples), n)
	}
	labelArch(ds, r)
	return ds, nil
}

// labelArch records the modelled GPU behind the runner, when one is exposed
// (directly by the simulator, or forwarded through a wrapper such as the
// evaluation engine).
func labelArch(ds *Dataset, r Runner) {
	if ap, ok := r.(sim.ArchProvider); ok {
		if arch := ap.Architecture(); arch != nil {
			ds.Arch = arch.Name
		}
	}
}

// Best returns the sample with the lowest time. It panics on an empty
// dataset; Collect never returns one.
func (d *Dataset) Best() Sample {
	best := 0
	for i := range d.Samples {
		if d.Samples[i].TimeMS < d.Samples[best].TimeMS {
			best = i
		}
	}
	return d.Samples[best]
}

// MetricColumn extracts one metric across all samples, in sample order.
// Missing entries are reported as an error, because a partially-collected
// metric would silently skew PCC computations.
func (d *Dataset) MetricColumn(name string) ([]float64, error) {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		v, ok := s.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("dataset: sample %d missing metric %q", i, name)
		}
		out[i] = v
	}
	return out, nil
}

// Times returns the measured times in sample order.
func (d *Dataset) Times() []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.TimeMS
	}
	return out
}

// Save serializes the dataset as JSON.
func (d *Dataset) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// Load reads a dataset written by Save.
func Load(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	if len(d.Samples) == 0 {
		return nil, errors.New("dataset: empty dataset")
	}
	return &d, nil
}
