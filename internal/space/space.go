// Package space parameterizes the stencil optimization techniques into the
// search space csTuner explores (paper Table I and Sec. IV-B).
//
// Eighteen parameters cover thread-block shape, shared/constant memory use,
// streaming (with streaming dimension and concurrent-streaming tiles), loop
// unrolling, cyclic and block merging, retiming and prefetching. Boolean and
// enumeration parameters start at 1 with unit stride so the log2 operations
// in parameter grouping and PMNF stay legitimate; numerical parameters are
// restricted to powers of two, consistent with Garvey'15, AN5D and PPoPP'18.
package space

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/stencil"
)

// Parameter indices. The order matches Table I.
const (
	TBX = iota // thread block extent, X (innermost)
	TBY        // thread block extent, Y
	TBZ        // thread block extent, Z
	UseShared
	UseConstant
	UseStreaming
	SD // streaming dimension: 1=X, 2=Y, 3=Z
	SB // concurrent streaming tiles along SD
	UFX
	UFY
	UFZ
	CMX // cyclic merging factors
	CMY
	CMZ
	BMX // block merging factors
	BMY
	BMZ
	UseRetiming
	UsePrefetching
	NumParams // sentinel: number of parameters
)

// Off and On are the paper's {1,2} encodings of boolean optimizations
// (1-based so log2 is defined for every parameter value).
const (
	Off = 1
	On  = 2
)

// Kind classifies a parameter for mutation and modeling purposes.
type Kind int

const (
	KindPow2 Kind = iota // powers of two within [1, Max]
	KindBool             // {Off, On}
	KindEnum             // small dense integer range starting at 1
)

// Param describes a single tunable parameter.
type Param struct {
	Name   string
	Kind   Kind
	Values []int // legal raw values in ascending order
	// Biased marks parameters sampled geometrically towards small values
	// (per-thread work multipliers, where uniform draws land almost surely
	// in register-spill territory).
	Biased bool
}

// Index returns the position of value v in Values, or -1. A power of two
// is looked up at position log2(v) first, where every power-of-two range
// starting at 1 (and every Off/On flag) keeps it; other values, and ranges
// that do not, fall back to the scan.
func (p *Param) Index(v int) int {
	if v > 0 && v&(v-1) == 0 {
		if i := bits.TrailingZeros(uint(v)); i < len(p.Values) && p.Values[i] == v {
			return i
		}
	}
	for i, x := range p.Values {
		if x == v {
			return i
		}
	}
	return -1
}

// Setting is one concrete assignment of all parameters, indexed by the
// parameter constants above.
type Setting []int

// Clone returns a copy of the setting.
func (s Setting) Clone() Setting { return append(Setting(nil), s...) }

// Equal reports whether two settings assign identical values.
func (s Setting) Equal(o Setting) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a compact unique string key for map indexing.
func (s Setting) Key() string {
	return string(s.AppendKey(make([]byte, 0, 64)))
}

// AppendKey appends the Key representation to dst and returns the extended
// slice. Hot paths (the engine's cache probe) render the key into
// a stack scratch buffer with it, so a cache hit never allocates. Values of
// one or two digits — the overwhelming bulk of stencil parameters — are
// rendered inline; anything else falls back to strconv.
func (s Setting) AppendKey(dst []byte) []byte {
	for i, v := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case v >= 0 && v < 10:
			dst = append(dst, byte('0'+v))
		case v >= 10 && v < 100:
			dst = append(dst, byte('0'+v/10), byte('0'+v%10))
		default:
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
	}
	return dst
}

// ParseKey decodes a Setting.Key string back into a setting. It is strict:
// every part must be the canonical base-10 rendering of its value (no signs,
// no leading zeros, no whitespace), so ParseKey is the exact inverse of Key —
// ParseKey(k) succeeds iff k == ParseKey(k).Key(). The decoded setting is
// purely syntactic; callers wanting a legal point of a space must still
// Validate it.
func ParseKey(key string) (Setting, error) {
	if key == "" {
		return nil, fmt.Errorf("space: empty setting key")
	}
	parts := strings.Split(key, ",")
	s := make(Setting, len(parts))
	for i, part := range parts {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("space: bad setting key part %q: %w", part, err)
		}
		if strconv.Itoa(v) != part {
			return nil, fmt.Errorf("space: non-canonical setting key part %q", part)
		}
		s[i] = v
	}
	return s, nil
}

// Hash returns a 64-bit hash of the setting, used to seed deterministic
// per-setting measurement noise in the simulator.
func (s Setting) Hash() uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, v := range s {
		h ^= uint64(uint32(v))
		h *= 1099511628211
		h = stats.Mix64(h)
	}
	return h
}

// String renders the setting with parameter names for diagnostics.
func (s Setting) String() string {
	return string(s.AppendString(make([]byte, 0, 256)))
}

// AppendString appends the String representation to dst and returns the
// extended slice, so code generation can write it without a scratch string.
func (s Setting) AppendString(dst []byte) []byte {
	for i, v := range s {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if i < len(paramNames) {
			dst = append(dst, paramNames[i]...)
			dst = append(dst, '=')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// paramNames are the canonical parameter names in index order.
var paramNames = [NumParams]string{
	"TBx", "TBy", "TBz",
	"useShared", "useConstant", "useStreaming", "SD", "SB",
	"UFx", "UFy", "UFz",
	"CMx", "CMy", "CMz",
	"BMx", "BMy", "BMz",
	"useRetiming", "usePrefetching",
}

// ParamNames returns the canonical parameter names in index order.
func ParamNames() []string { return append([]string(nil), paramNames[:]...) }

// Space is a constrained optimization space: the Table I stencil space when
// built with New, or an arbitrary parameter space when built with NewCustom
// (the paper's Sec. IV-A/VII generality claim: "csTuner can also support
// auto-tuning of more general GPU algorithms ... we only need to adjust the
// optimization space").
type Space struct {
	Stencil *stencil.Stencil // nil for custom spaces
	Params  []Param

	// MaxThreadsPerBlock is the TB-size product cap (1024 on both A100
	// and V100, paper Sec. IV-B). Stencil spaces only.
	MaxThreadsPerBlock int

	// CustomValidate and CustomRepair replace the stencil constraint rules
	// for custom spaces; CustomDefault replaces the canonical baseline.
	CustomValidate func(Setting) error
	CustomRepair   func(Setting, RNG)
	CustomDefault  func() Setting

	footprints *footprints // New's memo of Stencil.Footprint
}

// N returns the number of parameters in this space.
func (sp *Space) N() int { return len(sp.Params) }

// Names returns the parameter names in index order.
func (sp *Space) Names() []string {
	out := make([]string, len(sp.Params))
	for i := range sp.Params {
		out[i] = sp.Params[i].Name
	}
	return out
}

// Format renders a setting of this space with its parameter names.
func (sp *Space) Format(s Setting) string {
	parts := make([]string, 0, len(s))
	for i, v := range s {
		if i < len(sp.Params) {
			parts = append(parts, fmt.Sprintf("%s=%d", sp.Params[i].Name, v))
		} else {
			parts = append(parts, strconv.Itoa(v))
		}
	}
	return strings.Join(parts, " ")
}

// NewCustom builds a space over arbitrary parameters. validate enforces the
// space's explicit cross-parameter constraints (range membership is always
// checked first); repair canonicalizes a raw draw before validation and may
// be nil; def produces the baseline setting and may be nil (first value of
// every parameter).
func NewCustom(params []Param, validate func(Setting) error, repair func(Setting, RNG), def func() Setting) (*Space, error) {
	if len(params) == 0 {
		return nil, errors.New("space: no parameters")
	}
	for i, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("space: parameter %d has no name", i)
		}
		if len(p.Values) == 0 {
			return nil, fmt.Errorf("space: parameter %s has no values", p.Name)
		}
		for j := 1; j < len(p.Values); j++ {
			if p.Values[j] <= p.Values[j-1] {
				return nil, fmt.Errorf("space: parameter %s values not ascending", p.Name)
			}
		}
		if p.Values[0] < 1 {
			return nil, fmt.Errorf("space: parameter %s starts below 1 (log legitimacy)", p.Name)
		}
	}
	if validate == nil {
		validate = func(Setting) error { return nil }
	}
	return &Space{
		Params:         append([]Param(nil), params...),
		CustomValidate: validate,
		CustomRepair:   repair,
		CustomDefault:  def,
	}, nil
}

// maxMergePerDim caps per-dimension unroll/merge factors: beyond 64-point
// amplification per thread every real kernel spills, so larger raw values
// only bloat the space with settings the implicit constraints reject anyway.
const maxMergePerDim = 64

// New builds the Table I parameter space for the given stencil.
func New(st *stencil.Stencil) (*Space, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	maxDim := st.NX
	if st.NY > maxDim {
		maxDim = st.NY
	}
	if st.NZ > maxDim {
		maxDim = st.NZ
	}
	pow2 := func(max int) []int { return stats.Pow2sUpTo(max) }
	mergeRange := func(m int) []int { return pow2(minInt(m, maxMergePerDim)) }

	params := make([]Param, NumParams)
	params[TBX] = Param{Name: "TBx", Kind: KindPow2, Values: pow2(minInt(1024, st.NX))}
	params[TBY] = Param{Name: "TBy", Kind: KindPow2, Values: pow2(minInt(1024, st.NY))}
	params[TBZ] = Param{Name: "TBz", Kind: KindPow2, Values: pow2(minInt(64, st.NZ))}
	params[UseShared] = Param{Name: "useShared", Kind: KindBool, Values: []int{Off, On}}
	params[UseConstant] = Param{Name: "useConstant", Kind: KindBool, Values: []int{Off, On}}
	params[UseStreaming] = Param{Name: "useStreaming", Kind: KindBool, Values: []int{Off, On}}
	params[SD] = Param{Name: "SD", Kind: KindEnum, Values: []int{1, 2, 3}}
	params[SB] = Param{Name: "SB", Kind: KindPow2, Values: pow2(maxDim)}
	params[UFX] = Param{Name: "UFx", Kind: KindPow2, Values: mergeRange(st.NX)}
	params[UFY] = Param{Name: "UFy", Kind: KindPow2, Values: mergeRange(st.NY)}
	params[UFZ] = Param{Name: "UFz", Kind: KindPow2, Values: mergeRange(st.NZ)}
	params[CMX] = Param{Name: "CMx", Kind: KindPow2, Values: mergeRange(st.NX)}
	params[CMY] = Param{Name: "CMy", Kind: KindPow2, Values: mergeRange(st.NY)}
	params[CMZ] = Param{Name: "CMz", Kind: KindPow2, Values: mergeRange(st.NZ)}
	params[BMX] = Param{Name: "BMx", Kind: KindPow2, Values: mergeRange(st.NX)}
	params[BMY] = Param{Name: "BMy", Kind: KindPow2, Values: mergeRange(st.NY)}
	params[BMZ] = Param{Name: "BMz", Kind: KindPow2, Values: mergeRange(st.NZ)}
	params[UseRetiming] = Param{Name: "useRetiming", Kind: KindBool, Values: []int{Off, On}}
	params[UsePrefetching] = Param{Name: "usePrefetching", Kind: KindBool, Values: []int{Off, On}}

	for i := UFX; i <= BMZ; i++ {
		params[i].Biased = true
	}
	return &Space{Stencil: st, Params: params, MaxThreadsPerBlock: 1024, footprints: new(footprints)}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Default returns the canonical untuned setting: a 256-thread 2-D block, no
// optional optimization enabled. It is always valid and serves as the
// baseline individual seeding searches.
func (sp *Space) Default() Setting {
	if sp.CustomDefault != nil {
		return sp.CustomDefault()
	}
	s := make(Setting, len(sp.Params))
	for i := range s {
		s[i] = sp.Params[i].Values[0]
	}
	s[TBX] = minInt(64, lastVal(sp.Params[TBX]))
	s[TBY] = minInt(4, lastVal(sp.Params[TBY]))
	return s
}

func lastVal(p Param) int { return p.Values[len(p.Values)-1] }

// ErrInvalid wraps all explicit-constraint violations.
var ErrInvalid = errors.New("space: invalid setting")

// invalidError is an explicit-constraint violation. It keeps the broken rule
// and its operands and renders its text only when Error is called, so a
// caller that only tests for nil never formats one.
type invalidError struct {
	rule rule
	name string // the parameter or grid dimension the rule names
	a, b int
}

// rule identifies the explicit constraint an invalidError reports.
type rule uint8

const (
	ruleArity rule = iota
	ruleRange
	ruleTBSize
	ruleEmptyTB
	ruleSDOff
	ruleSBOff
	rulePrefetchOff
	ruleSBDim
	ruleUFSB
	ruleCyclicSD
	ruleAmplification
)

func (e *invalidError) Error() string {
	var detail string
	switch e.rule {
	case ruleArity:
		detail = fmt.Sprintf("has %d values, want %d", e.a, e.b)
	case ruleRange:
		detail = fmt.Sprintf("%s=%d outside its range", e.name, e.a)
	case ruleTBSize:
		detail = fmt.Sprintf("TB size %d exceeds %d", e.a, e.b)
	case ruleEmptyTB:
		detail = "empty thread block"
	case ruleSDOff:
		detail = fmt.Sprintf("SD=%d without streaming", e.a)
	case ruleSBOff:
		detail = fmt.Sprintf("SB=%d without streaming", e.a)
	case rulePrefetchOff:
		detail = "prefetching without streaming"
	case ruleSBDim:
		detail = fmt.Sprintf("SB=%d exceeds M_SD=%d", e.a, e.b)
	case ruleUFSB:
		detail = fmt.Sprintf("UF along SD (%d) exceeds SB (%d)", e.a, e.b)
	case ruleCyclicSD:
		detail = fmt.Sprintf("cyclic merging (%d) along streaming dimension", e.a)
	case ruleAmplification:
		detail = fmt.Sprintf("UF*CM*BM=%d exceeds M_%s=%d", e.a, e.name, e.b)
	}
	return ErrInvalid.Error() + ": " + detail
}

func (e *invalidError) Unwrap() error { return ErrInvalid }

// Validate checks the explicit constraints of Sec. IV-B. It returns nil for
// a legal setting and an error naming the violated rule otherwise. Implicit
// (resource) constraints are the kernel package's responsibility.
func (sp *Space) Validate(s Setting) error {
	if len(s) != len(sp.Params) {
		return &invalidError{rule: ruleArity, a: len(s), b: len(sp.Params)}
	}
	for i, v := range s {
		if sp.Params[i].Index(v) < 0 {
			return &invalidError{rule: ruleRange, name: sp.Params[i].Name, a: v}
		}
	}
	if sp.CustomValidate != nil {
		return sp.CustomValidate(s)
	}
	// TB size cap: TBx*TBy*TBz <= 1024.
	tb := s[TBX] * s[TBY] * s[TBZ]
	if tb > sp.MaxThreadsPerBlock {
		return &invalidError{rule: ruleTBSize, a: tb, b: sp.MaxThreadsPerBlock}
	}
	// A warp-width block is required for any coalescing at all; blocks
	// narrower than 1 are impossible anyway (values start at 1).
	if tb < 1 {
		return &invalidError{rule: ruleEmptyTB}
	}

	st := sp.Stencil
	streaming := s[UseStreaming] == On
	if !streaming {
		// SD and SB are only valid under streaming; canonical form pins
		// them to 1 so equivalent kernels have exactly one encoding.
		if s[SD] != 1 {
			return &invalidError{rule: ruleSDOff, a: s[SD]}
		}
		if s[SB] != 1 {
			return &invalidError{rule: ruleSBOff, a: s[SB]}
		}
		// Prefetching hides the inter-iteration synchronization of
		// streaming; without streaming there is nothing to prefetch.
		if s[UsePrefetching] == On {
			return &invalidError{rule: rulePrefetchOff}
		}
	} else {
		sd := s[SD]
		msd := st.Dim(sd)
		if s[SB] > msd {
			return &invalidError{rule: ruleSBDim, a: s[SB], b: msd}
		}
		// Concurrent streaming: the unroll factor along the streaming
		// dimension must not exceed the tile extent SB.
		if s[SB] > 1 && s[unrollOf(sd)] > s[SB] {
			return &invalidError{rule: ruleUFSB, a: s[unrollOf(sd)], b: s[SB]}
		}
		// Cyclic merging along the serially-walked streaming dimension
		// would interleave iterations of different tiles; no generator
		// supports that combination.
		if s[cyclicOf(sd)] != 1 {
			return &invalidError{rule: ruleCyclicSD, a: s[cyclicOf(sd)]}
		}
	}

	// Per-dimension amplification: a thread's merged+unrolled footprint
	// cannot exceed the grid extent.
	dims := []struct {
		uf, cm, bm int
		m          int
		name       string
	}{
		{s[UFX], s[CMX], s[BMX], st.NX, "x"},
		{s[UFY], s[CMY], s[BMY], st.NY, "y"},
		{s[UFZ], s[CMZ], s[BMZ], st.NZ, "z"},
	}
	for _, d := range dims {
		if d.uf*d.cm*d.bm > d.m {
			return &invalidError{rule: ruleAmplification, name: d.name, a: d.uf * d.cm * d.bm, b: d.m}
		}
	}
	return nil
}

// unrollOf maps a streaming dimension (1..3) to the unroll parameter index.
func unrollOf(sd int) int {
	switch sd {
	case 1:
		return UFX
	case 2:
		return UFY
	case 3:
		return UFZ
	}
	panic(fmt.Sprintf("space: invalid streaming dimension %d", sd))
}

// UnrollOf is exported for the kernel resource model.
func UnrollOf(sd int) int { return unrollOf(sd) }

// cyclicOf maps a streaming dimension (1..3) to the cyclic-merge parameter.
func cyclicOf(sd int) int {
	switch sd {
	case 1:
		return CMX
	case 2:
		return CMY
	case 3:
		return CMZ
	}
	panic(fmt.Sprintf("space: invalid streaming dimension %d", sd))
}

// RNG is the subset of math/rand.Rand the space needs, accepted as an
// interface so deterministic test doubles can drive sampling.
type RNG interface {
	Intn(n int) int
	Float64() float64
}

// Random returns a random *valid* setting. Thread-block extents and flags
// are drawn uniformly; the nine per-thread work multipliers (unroll, cyclic
// and block merging) are drawn geometrically towards small factors, because
// a uniform draw over their full Table I ranges lands almost surely in
// register-spill territory — real samplers (Garvey'15, AN5D) bias the same
// way. Structural rules are repaired in place; residual numeric conflicts
// fall back to rejection, which terminates quickly.
func (sp *Space) Random(rng RNG) Setting {
	s := make(Setting, len(sp.Params)) // redrawn in place after a rejection
	for {
		for i := range s {
			vals := sp.Params[i].Values
			if sp.Params[i].Biased {
				s[i] = vals[geomIndex(rng, len(vals))]
			} else {
				s[i] = vals[rng.Intn(len(vals))]
			}
		}
		sp.Repair(s, rng)
		if sp.Validate(s) == nil {
			return s
		}
	}
}

// geomIndex draws an index in [0, n) with P(i) ∝ 2^-i (renormalized by
// clamping the tail into the last slot).
func geomIndex(rng RNG, n int) int {
	i := 0
	for i < n-1 && rng.Float64() < 0.5 {
		i++
	}
	return i
}

// Neighbor returns a valid setting one local move away from s: a single
// parameter nudged to an adjacent legal value, followed by canonical repair.
// When no repairable single-step move exists (or s itself is degenerate) it
// falls back to a fresh random draw, so the result is always valid.
func (sp *Space) Neighbor(s Setting, rng RNG) Setting {
	for tries := 0; tries < 64; tries++ {
		n := s.Clone()
		i := rng.Intn(len(sp.Params))
		vals := sp.Params[i].Values
		j := sp.Params[i].Index(n[i])
		if j < 0 || len(vals) < 2 {
			continue
		}
		switch {
		case j == 0:
			j++
		case j == len(vals)-1:
			j--
		case rng.Intn(2) == 0:
			j--
		default:
			j++
		}
		n[i] = vals[j]
		sp.Repair(n, rng)
		if sp.Validate(n) == nil && !n.Equal(s) {
			return n
		}
	}
	return sp.Random(rng)
}

// Repair rewrites s in place into canonical streaming form and clamps the
// easily-repaired numeric constraints, leaving only rare residual conflicts
// to rejection. The result may still be invalid; callers must re-Validate.
func (sp *Space) Repair(s Setting, rng RNG) {
	if sp.CustomValidate != nil {
		if sp.CustomRepair != nil {
			sp.CustomRepair(s, rng)
		}
		return
	}
	// Canonical non-streaming form.
	if s[UseStreaming] != On {
		s[SD], s[SB] = 1, 1
		s[UsePrefetching] = Off
	} else {
		msd := sp.Stencil.Dim(s[SD])
		for s[SB] > msd {
			s[SB] >>= 1
		}
		if s[SB] > 1 {
			uf := unrollOf(s[SD])
			for s[uf] > s[SB] {
				s[uf] >>= 1
			}
		}
		s[cyclicOf(s[SD])] = 1
	}
	// TB product cap: shrink the largest extent until legal.
	for s[TBX]*s[TBY]*s[TBZ] > sp.MaxThreadsPerBlock {
		switch {
		case s[TBY] >= s[TBX] && s[TBY] >= s[TBZ] && s[TBY] > 1:
			s[TBY] >>= 1
		case s[TBX] >= s[TBZ] && s[TBX] > 1:
			s[TBX] >>= 1
		default:
			s[TBZ] >>= 1
		}
	}
	// Per-dimension amplification caps.
	caps := [3][4]int{
		{UFX, CMX, BMX, sp.Stencil.NX},
		{UFY, CMY, BMY, sp.Stencil.NY},
		{UFZ, CMZ, BMZ, sp.Stencil.NZ},
	}
	for _, c := range caps {
		for s[c[0]]*s[c[1]]*s[c[2]] > c[3] {
			// Halve whichever factor is largest.
			i := c[0]
			if s[c[1]] > s[i] {
				i = c[1]
			}
			if s[c[2]] > s[i] {
				i = c[2]
			}
			if s[i] == 1 {
				break
			}
			s[i] >>= 1
		}
	}
}

// SizeUpperBound returns the unconstrained cartesian-product size of the
// space, the paper's ">100 million parameter settings" headline number.
func (sp *Space) SizeUpperBound() float64 {
	size := 1.0
	for i := range sp.Params {
		size *= float64(len(sp.Params[i].Values))
	}
	return size
}
