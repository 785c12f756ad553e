package polynomial

import (
	"fmt"
	"math"
	"slices"
)

// PackedSet is the slab-backed representation of a polynomial set: the
// variable of every term of every monomial of every polynomial lives in
// one flat column, the exponents in a second one that exists only when
// some exponent is not 1 (SUM provenance never has one), with a []float64
// coefficient array and two offset tables delimiting the monomials of
// each polynomial and the terms of each monomial. Compared to the pointer
// form (*Set holding []Polynomial holding []Monomial holding []Term), a
// PackedSet of m monomials costs O(1) allocations instead of O(m), and
// iterating it walks contiguous memory.
//
//	keys:    [k0        k1    k2  ...]          one per polynomial
//	polyOff: [0     2       5  ...]             monomial range of poly i
//	coefs:   [c0 c1 c2 c3 c4 ...]               one per monomial
//	monOff:  [0  2  3  6  6  ...]               term range of monomial i
//	vars:    [v v|v|v v v| |...]                flat column
//	exps:    [e e|e|e e e| |...]                empty while every e is 1
//
// These are the arrays valuation.Program evaluates, so a packed set is
// evaluated in place (valuation.EvalBatchSource), and they are what a
// ShardedSet holds a resident shard in and spills, slab for slab.
//
// A PackedSet is append-only: Add copies the polynomial's monomials into
// the slabs (the input is NOT retained, so callers may reuse scratch
// storage — the opposite of Set.Add, which keeps the value it is given).
// View exposes the set as an ordinary *Set, so every existing consumer of
// the pointer API works unchanged on packed data.
type PackedSet struct {
	names   *Names
	keys    []string
	polyOff []int32   // len(keys)+1; monomial range of polynomial i
	coefs   []float64 // one per monomial
	monOff  []int32   // len(coefs)+1; term range of monomial i
	vars    []int32   // the Var of every term, flat
	exps    []int32   // the exponent of every term, or empty: all of them are 1
}

// NewPackedSet returns an empty packed set over names (a fresh namespace
// if nil).
func NewPackedSet(names *Names) *PackedSet {
	if names == nil {
		names = NewNames()
	}
	return &PackedSet{names: names, polyOff: []int32{0}, monOff: []int32{0}}
}

// Grow pre-allocates slab capacity for polys polynomials, mons monomials
// and terms terms (any of which may be zero to leave that slab alone).
func (ps *PackedSet) Grow(polys, mons, terms int) {
	if polys > 0 && cap(ps.keys)-len(ps.keys) < polys {
		ps.keys = append(make([]string, 0, len(ps.keys)+polys), ps.keys...)
		ps.polyOff = append(make([]int32, 0, len(ps.polyOff)+polys), ps.polyOff...)
	}
	if mons > 0 && cap(ps.coefs)-len(ps.coefs) < mons {
		ps.coefs = append(make([]float64, 0, len(ps.coefs)+mons), ps.coefs...)
		ps.monOff = append(make([]int32, 0, len(ps.monOff)+mons), ps.monOff...)
	}
	if terms > 0 && cap(ps.vars)-len(ps.vars) < terms {
		ps.vars = append(make([]int32, 0, len(ps.vars)+terms), ps.vars...)
	}
}

// Add appends a named polynomial, copying its monomials into the slabs.
// p is not retained. Add fails only if the set overflows the int32
// offset space (≈2.1 billion terms).
func (ps *PackedSet) Add(key string, p Polynomial) error {
	if int64(len(ps.coefs))+int64(len(p.Mons)) > math.MaxInt32 ||
		int64(len(ps.vars))+int64(p.NumTerms()) > math.MaxInt32 {
		return fmt.Errorf("polynomial: PackedSet overflows int32 offsets")
	}
	ps.BeginPoly(key)
	for _, m := range p.Mons {
		ps.AppendMonomial(m.Coef, m.Terms)
	}
	return nil
}

// BeginPoly opens a new polynomial under key; monomials are then
// appended with AppendMonomial until the next BeginPoly. This is the
// append-only producer path for readers and capture: no intermediate
// Polynomial value is built.
func (ps *PackedSet) BeginPoly(key string) {
	ps.keys = append(ps.keys, key)
	ps.polyOff = append(ps.polyOff, int32(len(ps.coefs)))
}

// AppendMonomial appends one canonical monomial (coefficient plus term
// vector, which is copied) to the currently open polynomial.
func (ps *PackedSet) AppendMonomial(coef float64, terms []Term) {
	ps.coefs = append(ps.coefs, coef)
	for _, t := range terms {
		if t.Exp != 1 || len(ps.exps) > 0 {
			// The exponent column exists from the first exponent that is
			// not 1 on; every term before that one had 1.
			for len(ps.exps) < len(ps.vars) {
				ps.exps = append(ps.exps, 1)
			}
			ps.exps = append(ps.exps, t.Exp)
		}
		ps.vars = append(ps.vars, int32(t.Var))
	}
	ps.monOff = append(ps.monOff, int32(len(ps.vars)))
	ps.polyOff[len(ps.polyOff)-1] = int32(len(ps.coefs))
}

// Len returns the number of polynomials.
func (ps *PackedSet) Len() int { return len(ps.keys) }

// Size returns the total number of monomials.
func (ps *PackedSet) Size() int { return len(ps.coefs) }

// NumTerms returns the total number of variable occurrences.
func (ps *PackedSet) NumTerms() int { return len(ps.vars) }

// Names returns the shared namespace.
func (ps *PackedSet) Names() *Names { return ps.names }

// Namespace returns the shared namespace (SetSource form).
func (ps *PackedSet) Namespace() *Names { return ps.names }

// Key returns the key of polynomial i.
func (ps *PackedSet) Key(i int) string { return ps.keys[i] }

// Coefs returns the coefficient slab (read-only to callers).
func (ps *PackedSet) Coefs() []float64 { return ps.coefs }

// Vars returns the variable column (read-only to callers): the Var of
// every term, flat.
func (ps *PackedSet) Vars() []int32 { return ps.vars }

// Exps returns the exponent column (read-only to callers), parallel to
// Vars, or nil when every exponent is 1.
func (ps *PackedSet) Exps() []int32 {
	if len(ps.exps) == 0 {
		return nil
	}
	return ps.exps
}

// PolyOff returns the polynomial offset table (read-only to callers):
// polynomial i covers monomials PolyOff()[i]..PolyOff()[i+1].
func (ps *PackedSet) PolyOff() []int32 { return ps.polyOff }

// MonOff returns the monomial offset table (read-only to callers):
// monomial m covers terms MonOff()[m]..MonOff()[m+1].
func (ps *PackedSet) MonOff() []int32 { return ps.monOff }

// UsedVars returns the distinct variables appearing in the set,
// ascending — a single pass over the variable column.
func (ps *PackedSet) UsedVars() []Var {
	if len(ps.vars) == 0 {
		return nil
	}
	seen := make([]bool, int(slices.Max(ps.vars))+1)
	n := 0
	for _, v := range ps.vars {
		if !seen[v] {
			seen[v] = true
			n++
		}
	}
	out := make([]Var, 0, n)
	for v, ok := range seen {
		if ok {
			out = append(out, Var(v))
		}
	}
	return out
}

// ResidentMonomials reports the monomials held in memory — all of them,
// a PackedSet is fully resident.
func (ps *PackedSet) ResidentMonomials() int { return len(ps.coefs) }

// PeakResidentMonomials equals ResidentMonomials for an in-memory set.
func (ps *PackedSet) PeakResidentMonomials() int { return len(ps.coefs) }

// View returns the packed set as an ordinary *Set built afresh on every
// call: the keys are copied (the strings themselves are shared, being
// immutable), and the Terms of all monomials are cut from one slab the
// two columns are zipped into (full slice expressions keep appends from
// clobbering neighbors) — four allocations however many monomials. The
// view shares no memory the PackedSet reuses, so later appends and a
// decode into the same PackedSet leave it as it was. No view is cached: a
// ShardedSet's resident shard would keep a second copy of itself alive.
// Callers must treat the view as read-only, like any shard passed through
// ForEachShard.
func (ps *PackedSet) View() *Set {
	terms := make([]Term, len(ps.vars))
	for i, v := range ps.vars {
		terms[i] = Term{Var: Var(v), Exp: 1}
	}
	for i, e := range ps.exps {
		terms[i].Exp = e
	}
	mons := make([]Monomial, len(ps.coefs))
	for i := range mons {
		lo, hi := ps.monOff[i], ps.monOff[i+1]
		mons[i] = Monomial{Coef: ps.coefs[i], Terms: terms[lo:hi:hi]}
	}
	polys := make([]Polynomial, len(ps.keys))
	for i := range polys {
		lo, hi := ps.polyOff[i], ps.polyOff[i+1]
		polys[i] = Polynomial{Mons: mons[lo:hi:hi]}
	}
	return &Set{Names: ps.names, Keys: slices.Clone(ps.keys), Polys: polys}
}

// ForEachShard presents the packed set as a single resident shard (a
// fresh view), making *PackedSet a SetSource.
func (ps *PackedSet) ForEachShard(fn func(i, firstPoly int, s *Set) error) error {
	return fn(0, 0, ps.View())
}

// ForEachPackedShard presents the packed set as a single packed shard:
// itself.
func (ps *PackedSet) ForEachPackedShard(fn func(i, firstPoly int, shard *PackedSet) error) error {
	return fn(0, 0, ps)
}
