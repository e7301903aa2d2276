// Copyright 2009 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package stats

import "math/rand"

// Rand is the generator rand.New(rand.NewSource(seed)) returns, as a
// concrete type: the additive lagged Fibonacci register step and the Intn,
// Float64 and Perm arithmetic are copied from the standard library's
// math/rand (rng.go and rand.go), so a Rand seeded with seed draws exactly
// the values that generator draws, call for call; only Intn's rejection
// test is rewritten, to one division that accepts the same values. Every
// result-affecting random choice in the repository draws from one.
//
// A *rand.Rand reaches its source through the Source interface on every
// draw; a Rand's calls are direct and its register step inlines, which is
// why the copy exists. Like rand.Rand, a Rand serves one goroutine at a
// time.
type Rand struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// NewRand returns a generator seeded with seed, drawing what
// rand.New(rand.NewSource(seed)) draws.
//
// math/rand seeds the register itself. Its first rngLen steps each
// overwrite a different word of the register with the value the step
// returns, so after them the register holds the values its source
// returned; undoing those steps, last first, gives back the seeded
// register.
func NewRand(seed int64) *Rand {
	src := rand.NewSource(seed).(rand.Source64)
	r := &Rand{feed: rngLen - rngTap}
	for k := 1; k <= rngLen; k++ {
		r.vec[(r.feed-k+rngLen)%rngLen] = int64(src.Uint64())
	}
	for k := rngLen; k >= 1; k-- {
		r.vec[(r.feed-k+rngLen)%rngLen] -= r.vec[(rngLen-k)%rngLen]
	}
	return r
}

// int63 steps the register and returns a non-negative pseudo-random 63-bit
// integer as an int64.
func (r *Rand) int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}

	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}

	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x & rngMask
}

// int31 returns a non-negative pseudo-random 31-bit integer as an int32.
func (r *Rand) int31() int32 { return int32(r.int63() >> 32) }

// int63n returns, as an int64, a non-negative pseudo-random number in the
// half-open interval [0,n); n must be positive.
func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.int63() & (n - 1)
	}
	for { // as in Intn
		v := uint64(r.int63())
		if m := v % uint64(n); v-m <= 1<<63-uint64(n) {
			return int64(m)
		}
	}
}

// Intn returns, as an int, a non-negative pseudo-random number in the
// half-open interval [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(r.int63n(int64(n)))
	}
	// math/rand's Int31n, in the body so a draw makes one call.
	if n&(n-1) == 0 { // n is power of two, can mask
		return int(r.int31() & int32(n-1))
	}
	// math/rand draws again while v > (1<<31 - 1) - (1<<31)%n, that is
	// while v falls in the partial block of n values at the top of the
	// range; v - v%n > 1<<31 - n tests the same with one division.
	for {
		v := uint32(r.int31())
		if m := v % uint32(n); v-m <= 1<<31-uint32(n) {
			return int(m)
		}
	}
}

// Float64 returns, as a float64, a pseudo-random number in the half-open
// interval [0.0,1.0).
func (r *Rand) Float64() float64 {
	// math/rand keeps Go 1's float64(r.int63()) / (1 << 63) and draws again
	// on the 1/2⁵³ chance that the division rounds up to 1.
again:
	f := float64(r.int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// BelowHalf reports whether Float64() < 0.5, drawing exactly what Float64
// draws. Float64 rounds x/2⁶³ for a draw x to 53 bits, so the quotient is
// below one half exactly when x < 2⁶²−256; x ≥ 2⁶³−512 rounds to 1, which
// Float64 redraws, and so does BelowHalf. One int63 and two comparisons
// replace a conversion, a division and a float comparison.
func (r *Rand) BelowHalf() bool {
	for {
		x := r.int63()
		if x < 1<<62-256 {
			return true
		}
		if x < 1<<63-512 {
			return false
		}
	}
}

// Perm returns, as a slice of n ints, a pseudo-random permutation of the
// integers in the half-open interval [0,n).
func (r *Rand) Perm(n int) []int {
	m := make([]int, n)
	r.PermInto(m)
	return m
}

// PermInto fills m with the permutation Perm(len(m)) would return, drawing
// the same values.
func (r *Rand) PermInto(m []int) {
	// The i=0 iteration swaps m[0] with itself but draws, as math/rand's
	// does, so the stream stays the same.
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}
