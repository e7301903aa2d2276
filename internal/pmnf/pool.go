package pmnf

import "repro/internal/space"

// Pool is a set of candidate settings indexed for scoring by models fitted
// over one grouping. A model's prediction adds one addend per group, and
// the addend depends only on the values of that group's parameters, which a
// large pool repeats many times. Pool therefore codes each group's value
// tuple once per setting, and a model computes one addend per distinct code.
type Pool struct {
	settings []space.Setting
	groups   [][]int
	// tuple[g][i] is the number of settings[i]'s group-g value tuple among
	// the group's distinct tuples, and first[g][u] the first setting that
	// holds tuple u. tuple[g] is nil for a group scored setting by setting.
	tuple   [][]int32
	first   [][]int32
	addends []float64 // Predict's per-group table, reused
}

// NewPool indexes settings of sp for models fitted over groups.
//
// A group's code is mixed-radix over its parameters' Param.Index values.
// Codes index a dense table, which is kept no larger than the pool: a group
// whose code range exceeds the pool size, or that holds a value Param.Index
// cannot place, is scored setting by setting instead.
func NewPool(sp *space.Space, groups [][]int, settings []space.Setting) *Pool {
	p := &Pool{
		settings: settings,
		groups:   groups,
		tuple:    make([][]int32, len(groups)),
		first:    make([][]int32, len(groups)),
	}
	var seen []int32 // by code: 1 + the tuple's number, 0 if not seen yet
	for gi, g := range groups {
		size := 1
		for _, q := range g {
			if size *= len(sp.Params[q].Values); size > len(settings) {
				break
			}
		}
		if size > len(settings) {
			continue
		}
		if cap(seen) < size {
			seen = make([]int32, size)
		}
		seen = seen[:size]
		clear(seen)
		tuple := make([]int32, len(settings))
		var first []int32
		placed := true
		for i, s := range settings {
			code, stride := 0, 1
			for _, q := range g {
				x := sp.Params[q].Index(s[q])
				if x < 0 {
					placed = false
					break
				}
				code += x * stride
				stride *= len(sp.Params[q].Values)
			}
			if !placed {
				break
			}
			if seen[code] == 0 {
				first = append(first, int32(i))
				seen[code] = int32(len(first))
			}
			tuple[i] = seen[code] - 1
		}
		if placed {
			p.tuple[gi], p.first[gi] = tuple, first
		}
	}
	return p
}

// Predict writes m.Predict(s) for every pool setting s to out, which must be
// as long as the pool. m must have been fitted over the pool's groups. Each
// value is bit-equal to m.Predict's: the intercept first, then the same
// addends added in the same group order. Predict reuses a scratch table, so
// one Pool serves one caller at a time.
func (p *Pool) Predict(m *Model, out []float64) {
	out = out[:len(p.settings)]
	sum := 0.0
	sum += m.Coef[0] * 1
	for i := range out {
		out[i] = sum
	}
	for gi, g := range p.groups {
		c := gi + 1
		if p.tuple[gi] == nil {
			for i, s := range p.settings {
				out[i] += m.addend(c, term(s, g, m.I, m.J))
			}
			continue
		}
		addends := p.addends[:0]
		for _, i := range p.first[gi] {
			addends = append(addends, m.addend(c, term(p.settings[i], g, m.I, m.J)))
		}
		for i, u := range p.tuple[gi] {
			out[i] += addends[u]
		}
		p.addends = addends
	}
}
