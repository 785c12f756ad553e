package polynomial

import (
	"fmt"
	"slices"
	"strings"
)

// Set is an ordered collection of named provenance polynomials sharing one
// variable namespace — typically one polynomial per output group of a
// provenance-aware query ("the multiset of polynomials that appear in the
// provenance-aware result of query evaluation", §2 of the paper).
type Set struct {
	Names *Names
	Keys  []string
	Polys []Polynomial
}

// NewSet returns an empty set over names (a fresh namespace if nil).
func NewSet(names *Names) *Set {
	if names == nil {
		names = NewNames()
	}
	return &Set{Names: names}
}

// Add appends a named polynomial. The error is always nil; the signature
// makes *Set a SetSink, so streaming producers can feed an in-memory set
// and a spilling ShardBuilder through one code path.
func (s *Set) Add(key string, p Polynomial) error {
	s.Keys = append(s.Keys, key)
	s.Polys = append(s.Polys, p)
	return nil
}

// Grow pre-allocates capacity for n additional polynomials, so a producer
// that knows its size (a ShardBuilder sizing the next shard from the last
// one) avoids append-doubling churn on the key and polynomial arrays.
func (s *Set) Grow(n int) {
	if cap(s.Keys)-len(s.Keys) < n {
		ks := make([]string, len(s.Keys), len(s.Keys)+n)
		copy(ks, s.Keys)
		s.Keys = ks
	}
	if cap(s.Polys)-len(s.Polys) < n {
		ps := make([]Polynomial, len(s.Polys), len(s.Polys)+n)
		copy(ps, s.Polys)
		s.Polys = ps
	}
}

// Len returns the number of polynomials.
func (s *Set) Len() int { return len(s.Polys) }

// Size returns the total number of monomials — the provenance size measure
// optimized by COBRA.
func (s *Set) Size() int {
	n := 0
	for _, p := range s.Polys {
		n += len(p.Mons)
	}
	return n
}

// NumTerms returns the total number of variable occurrences across the set.
func (s *Set) NumTerms() int {
	n := 0
	for _, p := range s.Polys {
		n += p.NumTerms()
	}
	return n
}

// UsedVars returns the distinct variables appearing in the set, ascending.
func (s *Set) UsedVars() []Var {
	var vs []Var
	var seen []bool
	for _, p := range s.Polys {
		vs, seen = p.Vars(vs, seen)
	}
	slices.Sort(vs)
	return vs
}

// NumVars returns the number of distinct variables appearing in the set —
// the expressiveness measure maximized by COBRA.
func (s *Set) NumVars() int { return len(s.UsedVars()) }

// Poly returns the polynomial stored under key, or false if absent. Keys are
// not required to be unique; the first match wins.
func (s *Set) Poly(key string) (Polynomial, bool) {
	for i, k := range s.Keys {
		if k == key {
			return s.Polys[i], true
		}
	}
	return Polynomial{}, false
}

// EvalAll evaluates every polynomial under val, in order.
func (s *Set) EvalAll(val func(Var) float64) []float64 {
	out := make([]float64, len(s.Polys))
	for i, p := range s.Polys {
		out[i] = p.Eval(val)
	}
	return out
}

// Clone returns a deep copy of the set sharing the namespace.
func (s *Set) Clone() *Set {
	out := &Set{Names: s.Names, Keys: append([]string(nil), s.Keys...), Polys: make([]Polynomial, len(s.Polys))}
	for i, p := range s.Polys {
		out.Polys[i] = p.Clone()
	}
	return out
}

// String renders the set one polynomial per line as "key: poly".
func (s *Set) String() string {
	var sb strings.Builder
	for i, k := range s.Keys {
		fmt.Fprintf(&sb, "%s: %s\n", k, s.Polys[i].String(s.Names))
	}
	return sb.String()
}
