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
	"sort"

	"repro/internal/sim"
	"repro/internal/space"
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
// it; tests can substitute doubles.
type Runner interface {
	Run(s space.Setting) (*sim.Result, error)
	Space() *space.Space
}

// Collect randomly samples the constrained space until n valid settings have
// been measured (deduplicated by setting key). maxTries bounds the rejection
// loop; <=0 means 1000·n.
func Collect(r Runner, rng space.RNG, n, maxTries int) (*Dataset, error) {
	if n <= 0 {
		return nil, errors.New("dataset: non-positive sample count")
	}
	if maxTries <= 0 {
		maxTries = 1000 * n
	}
	sp := r.Space()
	ds := &Dataset{}
	if sp.Stencil != nil {
		ds.Stencil = sp.Stencil.Name
	}
	seen := make(map[string]struct{}, n)
	for tries := 0; len(ds.Samples) < n && tries < maxTries; tries++ {
		set := sp.Random(rng)
		key := set.Key()
		if _, dup := seen[key]; dup {
			continue
		}
		res, err := r.Run(set)
		if err != nil {
			continue // implicit-constraint rejects are expected
		}
		seen[key] = struct{}{}
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

// SortedByTime returns sample indices ordered fastest-first.
func (d *Dataset) SortedByTime() []int {
	idx := make([]int, len(d.Samples))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return d.Samples[idx[a]].TimeMS < d.Samples[idx[b]].TimeMS
	})
	return idx
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

// ParamColumn extracts one parameter's raw value across all samples.
func (d *Dataset) ParamColumn(p int) ([]float64, error) {
	if p < 0 || len(d.Samples) == 0 || p >= len(d.Samples[0].Setting) {
		return nil, fmt.Errorf("dataset: parameter index %d out of range", p)
	}
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = float64(s.Setting[p])
	}
	return out, nil
}

// Lookup returns the sample with the given setting, if present.
func (d *Dataset) Lookup(s space.Setting) (Sample, bool) {
	key := s.Key()
	for i := range d.Samples {
		if d.Samples[i].Setting.Key() == key {
			return d.Samples[i], true
		}
	}
	return Sample{}, false
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
