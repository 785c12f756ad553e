package polynomial

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
)

// Term is a variable raised to a positive exponent.
type Term struct {
	Var Var
	Exp int32
}

// T is shorthand for Term{v, 1}.
func T(v Var) Term { return Term{Var: v, Exp: 1} }

// TExp is shorthand for Term{v, e}.
func TExp(v Var, e int32) Term { return Term{Var: v, Exp: e} }

// Monomial is a coefficient times a product of terms. In canonical form the
// terms are sorted by Var, exponents are positive, and no Var repeats.
type Monomial struct {
	Coef  float64
	Terms []Term
}

// Mono builds a canonical monomial from a coefficient and terms (which may be
// unsorted and may repeat variables; repeated variables have their exponents
// summed).
func Mono(coef float64, terms ...Term) Monomial {
	m := Monomial{Coef: coef, Terms: append([]Term(nil), terms...)}
	m.normalize()
	return m
}

// MonoIn is Mono reusing terms as the monomial's backing storage (sorted
// and merged in place, so the slice must be owned by the caller) — the
// allocation-free form for producers carving terms from a slab.
func MonoIn(coef float64, terms []Term) Monomial {
	m := Monomial{Coef: coef, Terms: terms}
	m.normalize()
	return m
}

// normalize sorts terms by Var, merges duplicates, and drops zero exponents.
func (m *Monomial) normalize() {
	ts := m.Terms
	if len(ts) > 1 {
		slices.SortFunc(ts, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	}
	out := ts[:0]
	for _, t := range ts {
		if t.Exp == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Var == t.Var {
			out[len(out)-1].Exp += t.Exp
			if out[len(out)-1].Exp == 0 {
				out = out[:len(out)-1]
			}
			continue
		}
		out = append(out, t)
	}
	m.Terms = out
}

// Clone returns a deep copy of m.
func (m Monomial) Clone() Monomial {
	return Monomial{Coef: m.Coef, Terms: append([]Term(nil), m.Terms...)}
}

// IsConstant reports whether the monomial has no variables.
func (m Monomial) IsConstant() bool { return len(m.Terms) == 0 }

// ExpOf returns the exponent of v in m and whether v appears.
func (m Monomial) ExpOf(v Var) (int32, bool) {
	i := sort.Search(len(m.Terms), func(i int) bool { return m.Terms[i].Var >= v })
	if i < len(m.Terms) && m.Terms[i].Var == v {
		return m.Terms[i].Exp, true
	}
	return 0, false
}

// WithoutVar returns a copy of m with any term on v removed. The coefficient
// is preserved.
func (m Monomial) WithoutVar(v Var) Monomial {
	out := Monomial{Coef: m.Coef, Terms: make([]Term, 0, len(m.Terms))}
	for _, t := range m.Terms {
		if t.Var != v {
			out.Terms = append(out.Terms, t)
		}
	}
	return out
}

// MulMono returns the product of two canonical monomials.
func MulMono(a, b Monomial) Monomial {
	out := Monomial{Coef: a.Coef * b.Coef, Terms: make([]Term, 0, len(a.Terms)+len(b.Terms))}
	i, j := 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch {
		case a.Terms[i].Var < b.Terms[j].Var:
			out.Terms = append(out.Terms, a.Terms[i])
			i++
		case a.Terms[i].Var > b.Terms[j].Var:
			out.Terms = append(out.Terms, b.Terms[j])
			j++
		default:
			out.Terms = append(out.Terms, Term{Var: a.Terms[i].Var, Exp: a.Terms[i].Exp + b.Terms[j].Exp})
			i++
			j++
		}
	}
	out.Terms = append(out.Terms, a.Terms[i:]...)
	out.Terms = append(out.Terms, b.Terms[j:]...)
	return out
}

// CompareTerms orders canonical term vectors lexicographically by
// (Var, Exp) pairs, shorter prefixes first — the order canonical
// polynomials keep their monomials in. Exported for decoders that must
// re-canonicalize after a namespace remap reorders variables.
func CompareTerms(a, b []Term) int { return compareTerms(a, b) }

// compareTerms orders canonical term vectors lexicographically by
// (Var, Exp) pairs, shorter prefixes first.
func compareTerms(a, b []Term) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i].Var < b[i].Var:
			return -1
		case a[i].Var > b[i].Var:
			return 1
		case a[i].Exp < b[i].Exp:
			return -1
		case a[i].Exp > b[i].Exp:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// appendTermsKey appends a byte encoding of a canonical term vector to buf.
// Equal vectors produce equal encodings and vice versa, so string(key) is a
// valid map key for monomial structure.
func appendTermsKey(buf []byte, terms []Term) []byte {
	for _, t := range terms {
		buf = binary.AppendUvarint(buf, uint64(uint32(t.Var)))
		buf = binary.AppendUvarint(buf, uint64(uint32(t.Exp)))
	}
	return buf
}

// EvalTerms evaluates the variable part of m (ignoring Coef) under val.
func (m Monomial) EvalTerms(val func(Var) float64) float64 {
	x := 1.0
	for _, t := range m.Terms {
		x *= ipow(val(t.Var), t.Exp)
	}
	return x
}

// Eval evaluates m (including coefficient) under val.
func (m Monomial) Eval(val func(Var) float64) float64 {
	return m.Coef * m.EvalTerms(val)
}

// ipow computes x^e for small positive integer e by repeated squaring.
func ipow(x float64, e int32) float64 {
	if e < 0 {
		return 1 / ipow(x, -e)
	}
	r := 1.0
	for e > 0 {
		if e&1 == 1 {
			r *= x
		}
		x *= x
		e >>= 1
	}
	return r
}
