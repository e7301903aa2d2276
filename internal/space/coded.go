package space

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Coded is a set of settings of a space in the compact form large candidate
// pools use: each setting is held once, as one uint16 code per parameter.
// Parameter p's codes number its values: the space's Param.Values first,
// so a legal value's code is its Param.Index, then each value outside them
// in the order first added. Equal codes therefore mean equal settings, and
// a setting is looked up in an open-addressing table by a hash of its
// codes, with equal codes deciding. Add and Has code their argument in
// the free room after the held codes, so one Coded serves one goroutine at
// a time.
type Coded struct {
	sp     *Space
	values [][]int  // values[p][x] is the value parameter p's code x stands for
	codes  []uint16 // setting i's codes, in the order added, are codes[i*n : (i+1)*n]
	slots  []int32  // 1 + the number of the setting hashed there, 0 if empty
	shift  uint     // a hash's top 64-shift bits pick its slot
}

// NewCoded returns an empty Coded for settings of sp with room for n.
func (sp *Space) NewCoded(n int) *Coded {
	c := &Coded{sp: sp, values: make([][]int, sp.N()), codes: make([]uint16, 0, n*sp.N())}
	for p := range c.values {
		c.values[p] = sp.Params[p].Values
	}
	c.shift = uint(64 - bits.Len(uint(2*max(n, 1)-1))) // 2^(64-shift) ≥ 2n slots
	c.slots = make([]int32, 1<<(64-c.shift))
	return c
}

// Space returns the space c holds settings of.
func (c *Coded) Space() *Space { return c.sp }

// Len returns the number of settings held.
func (c *Coded) Len() int { return len(c.codes) / len(c.values) }

// Row returns the codes of setting i, one per parameter. The caller may not
// modify them.
func (c *Coded) Row(i int) []uint16 {
	n := len(c.values)
	return c.codes[i*n : (i+1)*n : (i+1)*n]
}

// NumCodes returns the number of codes parameter p has in use; every code
// of p in a Row is below it.
func (c *Coded) NumCodes(p int) int { return len(c.values[p]) }

// Value returns the value parameter p's code x stands for.
func (c *Coded) Value(p int, x uint16) int { return c.values[p][x] }

// Decode writes setting i's values into s.
func (c *Coded) Decode(i int, s Setting) {
	for p, x := range c.Row(i) {
		s[p] = c.values[p][x]
	}
}

// Add adds s, which must hold one value per parameter, unless c holds it
// already, and reports whether it did. It fails, leaving c as it was, when
// a parameter would hold more values than a code can number.
func (c *Coded) Add(s Setting) (bool, error) {
	k := len(c.codes)
	c.codes = slices.Grow(c.codes, len(s))
	row := c.codes[k : k+len(s)]
	foreign := false
	for p, v := range s {
		x := c.code(p, v)
		if x < 0 {
			if len(c.values[p]) > math.MaxUint16 {
				return false, fmt.Errorf("space: parameter %s holds more than %d values", c.sp.Params[p].Name, math.MaxUint16+1)
			}
			foreign = true
		}
		row[p] = uint16(x)
	}
	if foreign {
		// Each new value takes its parameter's next code. The space's own
		// lists are copied, never appended to.
		for p, v := range s {
			if c.code(p, v) < 0 {
				if len(c.values[p]) == len(c.sp.Params[p].Values) {
					c.values[p] = slices.Clip(c.values[p])
				}
				row[p], c.values[p] = uint16(len(c.values[p])), append(c.values[p], v)
			}
		}
	}
	h := c.find(row)
	if c.slots[h] != 0 {
		return false, nil
	}
	c.codes = c.codes[:k+len(s)]
	c.slots[h] = int32(c.Len())
	if 2*c.Len() > len(c.slots) {
		c.rehash()
	}
	return true, nil
}

// Has reports whether c holds s, which must hold one value per parameter.
func (c *Coded) Has(s Setting) bool {
	k := len(c.codes)
	c.codes = slices.Grow(c.codes, len(s))
	row := c.codes[k : k+len(s)]
	for p, v := range s {
		x := c.code(p, v)
		if x < 0 {
			return false
		}
		row[p] = uint16(x)
	}
	return c.slots[c.find(row)] != 0
}

// code returns parameter p's code for v, or -1 when v has none yet.
func (c *Coded) code(p, v int) int {
	if x := c.sp.Params[p].Index(v); x >= 0 {
		return x
	}
	own := len(c.sp.Params[p].Values)
	if x := slices.Index(c.values[p][own:], v); x >= 0 {
		return own + x
	}
	return -1
}

// find returns the table slot of the held setting with codes row, or the
// empty slot where it would go.
func (c *Coded) find(row []uint16) int {
	mask := len(c.slots) - 1
	for h := int(hashCodes(row) >> c.shift); ; h = (h + 1) & mask {
		if i := int(c.slots[h]) - 1; i < 0 || slices.Equal(c.Row(i), row) {
			return h
		}
	}
}

// rehash doubles the table, which Add keeps no more than half full.
func (c *Coded) rehash() {
	c.shift--
	c.slots = make([]int32, 1<<(64-c.shift))
	for i := range c.Len() {
		c.slots[c.find(c.Row(i))] = int32(i + 1)
	}
}

// hashCodes mixes a setting's codes, four to a word, into a hash whose top
// bits pick its table slot.
func hashCodes(c []uint16) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(len(c))
	for ; len(c) >= 4; c = c[4:] {
		w := uint64(c[0]) | uint64(c[1])<<16 | uint64(c[2])<<32 | uint64(c[3])<<48
		h = (bits.RotateLeft64(h, 26) ^ w) * k
	}
	for _, x := range c {
		h = (bits.RotateLeft64(h, 26) ^ uint64(x)) * k
	}
	return h
}
