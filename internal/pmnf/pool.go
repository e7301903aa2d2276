package pmnf

import "repro/internal/space"

// Pool is a set of candidate settings indexed for scoring by models fitted
// over one grouping. A model's prediction adds one addend per group, and
// the addend depends only on the values of that group's parameters, which a
// large pool repeats many times. Pool therefore codes each group's value
// tuple once per candidate, and a model computes one addend per distinct
// code.
//
// The candidates are held as value codes (space.Coded), not settings.
type Pool struct {
	coded  *space.Coded
	groups [][]int
	// tuple[g][i] is the number of candidate i's group-g value tuple among
	// the group's distinct tuples, and first[g][u] the first candidate
	// that holds tuple u. tuple[g] is nil for a group scored candidate by
	// candidate.
	tuple   [][]int32
	first   [][]int32
	addends []float64     // Predict's per-group table, reused
	row     space.Setting // one candidate's decoded values, reused
}

// NewPool indexes the candidates coded holds, and keeps it, for models
// fitted over groups; coded may not gain settings afterwards.
//
// A group's tuple code is mixed-radix over its parameters' value codes.
// Tuple codes index a dense table, which is kept no larger than the pool:
// a group whose code range exceeds the pool size is scored candidate by
// candidate instead.
func NewPool(coded *space.Coded, groups [][]int) *Pool {
	size := coded.Len()
	p := &Pool{
		coded:  coded,
		groups: groups,
		tuple:  make([][]int32, len(groups)),
		first:  make([][]int32, len(groups)),
		row:    make(space.Setting, coded.Space().N()),
	}
	var seen []int32 // by code: 1 + the tuple's number, 0 if not seen yet
	var strides []int
	for gi, g := range groups {
		strides = strides[:0]
		span := 1
		for _, q := range g {
			strides = append(strides, span)
			if span *= coded.NumCodes(q); span > size {
				break
			}
		}
		if span > size {
			continue
		}
		if cap(seen) < span {
			seen = make([]int32, span)
		}
		seen = seen[:span]
		clear(seen)
		tuple := make([]int32, size)
		var first []int32
		for i := range tuple {
			c := coded.Row(i)
			code := 0
			for k, q := range g {
				code += int(c[q]) * strides[k]
			}
			if seen[code] == 0 {
				first = append(first, int32(i))
				seen[code] = int32(len(first))
			}
			tuple[i] = seen[code] - 1
		}
		p.tuple[gi], p.first[gi] = tuple, first
	}
	return p
}

// decode writes candidate i's values of the parameters of g into p.row and
// returns it; the row's other entries are stale.
func (p *Pool) decode(i int, g []int) space.Setting {
	c := p.coded.Row(i)
	for _, q := range g {
		p.row[q] = p.coded.Value(q, c[q])
	}
	return p.row
}

// Predict writes m.Predict(s) for every pool candidate s to out, which must
// be as long as the pool. m must have been fitted over the pool's groups.
// Each value is bit-equal to m.Predict's: the intercept first, then the
// same addends added in the same group order. Predict reuses scratch
// memory, so one Pool serves one caller at a time.
func (p *Pool) Predict(m *Model, out []float64) {
	out = out[:p.coded.Len()]
	sum := 0.0
	sum += m.Coef[0] * 1
	for i := range out {
		out[i] = sum
	}
	for gi, g := range p.groups {
		c := gi + 1
		if p.tuple[gi] == nil {
			for i := range out {
				out[i] += m.addend(c, term(p.decode(i, g), g, m.I, m.J))
			}
			continue
		}
		addends := p.addends[:0]
		for _, i := range p.first[gi] {
			addends = append(addends, m.addend(c, term(p.decode(int(i), g), g, m.I, m.J)))
		}
		for i, u := range p.tuple[gi] {
			out[i] += addends[u]
		}
		p.addends = addends
	}
}
