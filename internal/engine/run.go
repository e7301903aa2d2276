package engine

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/space"
)

// ErrNoRunner is returned by Run when the inner objective offers only
// Measure — it cannot produce the metric reports dataset collection needs.
var ErrNoRunner = errors.New("engine: objective cannot produce metric reports")

// Runner is the optional metric-producing surface an objective can
// implement (the simulator and the GEMM/CPU/temporal workloads all do):
// Run returns the full simulated result — time plus Nsight-style metrics —
// that offline dataset collection stores.
type Runner interface {
	Run(s space.Setting) (*sim.Result, error)
	Space() *space.Space
}

// CanCollect reports whether the inner objective can produce the metric
// reports offline dataset collection needs.
func (e *Engine) CanCollect() bool {
	_, ok := e.obj.(Runner)
	return ok
}

// Run implements Runner by forwarding to the inner objective. Collection is
// an offline step (paper Sec. V-F): it is neither charged to the virtual
// budget nor counted as an evaluation, but successful results pre-warm the
// measurement cache so the search re-probes dataset settings for free. A
// cached error is served as a cache hit; a result is not kept, since
// dataset.Collect never runs a setting it already kept.
func (e *Engine) Run(s space.Setting) (*sim.Result, error) {
	r, ok := e.obj.(Runner)
	if !ok {
		return nil, ErrNoRunner
	}
	key := s.Key()
	if err := e.cache[key].err; err != nil {
		e.cacheHits.Add(1)
		return nil, err
	}
	res, err := r.Run(s)
	if err != nil {
		if !errors.Is(err, ErrBudget) {
			e.cacheErr(key, err)
		}
		return nil, err
	}
	e.cacheTime(key, res.TimeMS)
	return res, nil
}
