package polynomial

import (
	"math"
	"slices"
)

// Polynomial is a sum of monomials in canonical form: every monomial is
// canonical, monomial term vectors are strictly increasing in the
// compareTerms order (so no two monomials share a term vector), and no
// monomial has an exactly-zero coefficient. The zero polynomial has no
// monomials.
//
// Polynomial values are immutable by convention: operations return new
// polynomials and never mutate their inputs.
type Polynomial struct {
	Mons []Monomial
}

// Zero returns the zero polynomial.
func Zero() Polynomial { return Polynomial{} }

// oneMons backs the shared constant-1 polynomial. Polynomials are
// immutable by convention, and any append to a full slice reallocates,
// so handing every caller the same one-element backing is safe — and it
// makes the annotation every fresh tuple carries allocation-free.
var oneMons = []Monomial{{Coef: 1}}

// One returns the constant polynomial 1 — the multiplicative identity
// and the default tuple annotation — without allocating.
func One() Polynomial { return Polynomial{Mons: oneMons} }

// Const returns the constant polynomial c.
func Const(c float64) Polynomial {
	if c == 0 {
		return Polynomial{}
	}
	if c == 1 {
		return One()
	}
	return Polynomial{Mons: []Monomial{{Coef: c}}}
}

// VarPoly returns the polynomial consisting of the single variable v.
func VarPoly(v Var) Polynomial {
	return Polynomial{Mons: []Monomial{{Coef: 1, Terms: []Term{{Var: v, Exp: 1}}}}}
}

// New builds a canonical polynomial from arbitrary monomials (merging equal
// term vectors, dropping zero coefficients).
func New(mons ...Monomial) Polynomial {
	var b Builder
	for _, m := range mons {
		b.AddMonomial(m)
	}
	return b.Polynomial()
}

// IsZero reports whether p is the zero polynomial.
func (p Polynomial) IsZero() bool { return len(p.Mons) == 0 }

// IsConstant reports whether p has no variables, returning its value.
func (p Polynomial) IsConstant() (float64, bool) {
	switch len(p.Mons) {
	case 0:
		return 0, true
	case 1:
		if p.Mons[0].IsConstant() {
			return p.Mons[0].Coef, true
		}
	}
	return 0, false
}

// NumMonomials returns the number of monomials — the provenance size measure
// used throughout the paper.
func (p Polynomial) NumMonomials() int { return len(p.Mons) }

// NumTerms returns the total number of variable occurrences.
func (p Polynomial) NumTerms() int {
	n := 0
	for _, m := range p.Mons {
		n += len(m.Terms)
	}
	return n
}

// Clone returns a deep copy of p in storage of exactly its size: one array
// of monomials, one of terms.
func (p Polynomial) Clone() Polynomial {
	out := Polynomial{Mons: make([]Monomial, len(p.Mons))}
	slab := make([]Term, p.NumTerms())
	for i, m := range p.Mons {
		n := copy(slab, m.Terms)
		out.Mons[i] = Monomial{Coef: m.Coef, Terms: slab[:n:n]}
		slab = slab[n:]
	}
	return out
}

// Vars appends the distinct variables of p to dst, deduplicated via seen
// (seen[v]: v is already in dst), which grows to the largest Var met. Pass
// nil slices to start fresh. A negative Var (NoVar) is deduplicated against
// dst itself.
func (p Polynomial) Vars(dst []Var, seen []bool) ([]Var, []bool) {
	for _, m := range p.Mons {
		for _, t := range m.Terms {
			switch {
			case t.Var < 0:
				// No valid set holds one; it is listed all the same, so
				// that a writer validating UsedVars rejects it.
				if !slices.Contains(dst, t.Var) {
					dst = append(dst, t.Var)
				}
				continue
			case int(t.Var) >= len(seen):
				// append doubles the capacity: O(log maxVar) reallocations per set, not per term.
				seen = append(seen, make([]bool, int(t.Var)+1-len(seen))...)
			}
			if !seen[t.Var] {
				seen[t.Var] = true
				dst = append(dst, t.Var)
			}
		}
	}
	return dst, seen
}

// Add returns p + q. When one side is zero the other is returned as is
// (sharing its storage — safe, polynomials are immutable by convention).
func Add(p, q Polynomial) Polynomial {
	if len(p.Mons) == 0 {
		return q
	}
	if len(q.Mons) == 0 {
		return p
	}
	out := Polynomial{Mons: make([]Monomial, 0, len(p.Mons)+len(q.Mons))}
	i, j := 0, 0
	for i < len(p.Mons) && j < len(q.Mons) {
		switch compareTerms(p.Mons[i].Terms, q.Mons[j].Terms) {
		case -1:
			out.Mons = append(out.Mons, p.Mons[i])
			i++
		case 1:
			out.Mons = append(out.Mons, q.Mons[j])
			j++
		default:
			c := p.Mons[i].Coef + q.Mons[j].Coef
			if c != 0 {
				out.Mons = append(out.Mons, Monomial{Coef: c, Terms: p.Mons[i].Terms})
			}
			i++
			j++
		}
	}
	out.Mons = append(out.Mons, p.Mons[i:]...)
	out.Mons = append(out.Mons, q.Mons[j:]...)
	return out
}

// Scale returns c·p. Scaling by 1 returns p itself; otherwise the result
// shares p's term vectors (only the coefficient array is new).
func Scale(p Polynomial, c float64) Polynomial {
	if c == 0 {
		return Polynomial{}
	}
	if c == 1 {
		return p
	}
	out := Polynomial{Mons: make([]Monomial, 0, len(p.Mons))}
	for _, m := range p.Mons {
		nc := m.Coef * c
		if nc != 0 {
			out.Mons = append(out.Mons, Monomial{Coef: nc, Terms: m.Terms})
		}
	}
	return out
}

// Neg returns -p.
func Neg(p Polynomial) Polynomial { return Scale(p, -1) }

// Sub returns p - q.
func Sub(p, q Polynomial) Polynomial { return Add(p, Neg(q)) }

// Mul returns p·q. Constant factors reduce to Scale (so multiplying by
// the ubiquitous annotation 1 is free and shares the other side's
// storage), and a product of two single monomials skips the
// sort-and-merge machinery; both fast paths produce the same bits as the
// general path (float64 multiplication is commutative).
func Mul(p, q Polynomial) Polynomial {
	if p.IsZero() || q.IsZero() {
		return Polynomial{}
	}
	if c, ok := p.IsConstant(); ok {
		return Scale(q, c)
	}
	if c, ok := q.IsConstant(); ok {
		return Scale(p, c)
	}
	if len(p.Mons) == 1 && len(q.Mons) == 1 {
		m := MulMono(p.Mons[0], q.Mons[0])
		if m.Coef == 0 {
			return Polynomial{}
		}
		return Polynomial{Mons: []Monomial{m}}
	}
	var b Builder
	b.Grow(len(p.Mons) * len(q.Mons))
	for _, pm := range p.Mons {
		for _, qm := range q.Mons {
			b.AddMonomial(MulMono(pm, qm))
		}
	}
	return b.Polynomial()
}

// MapVars returns p with every variable v replaced by f(v), re-canonicalized
// (monomials that become equal are merged). This is the algebraic operation
// behind abstraction: replacing leaf variables by their meta-variable.
//
// Summation order: the Accumulator's — a merged coefficient is the
// left-to-right float64 sum of its contributions in p's canonical order.
// The result owns exactly-sized storage and shares none with p.
func MapVars(p Polynomial, f func(Var) Var) Polynomial {
	return new(mapper).mapVars(p, f)
}

// mapper is the state one worker reuses from polynomial to polynomial in
// MapVars, so that a polynomial costs two allocations — its monomials and
// its terms — whatever its size.
type mapper struct {
	acc   Accumulator // the distinct mapped term vectors of the current polynomial
	arena []Term      // what those vectors are carved from
}

// mapVars is MapVars merging on arrival: each monomial is mapped into the
// tail of the arena (re-sorted and merged only when the substitution broke
// its order, repeated a variable, or the input carried a zero exponent) and
// added to the accumulator, which keeps the tail if the vector is new and
// otherwise leaves it to be overwritten by the next monomial. Only the
// distinct vectors are sorted.
func (w *mapper) mapVars(p Polynomial, f func(Var) Var) Polynomial {
	a := &w.acc
	a.mons, a.hashes = a.mons[:0], a.hashes[:0] // emptied, storage kept; see rehash
	arena := w.arena[:0]
	for _, m := range p.Mons {
		n := len(m.Terms)
		if cap(arena)-len(arena) < n {
			// Vectors already kept stay in the chunk they were carved
			// from; only the newest chunk is reused.
			arena = make([]Term, 0, max(2*cap(arena), n, 512))
		}
		nm := Monomial{Terms: arena[len(arena) : len(arena)+n]}
		canonical := true
		for j, t := range m.Terms {
			v := f(t.Var)
			nm.Terms[j] = Term{Var: v, Exp: t.Exp}
			if t.Exp == 0 || (j > 0 && v <= nm.Terms[j-1].Var) {
				canonical = false
			}
		}
		if !canonical {
			nm.normalize()
		}
		if n = len(nm.Terms); a.Add(m.Coef, nm.Terms[:n:n]) {
			arena = arena[:len(arena)+n]
		}
	}
	w.arena = arena
	mons := a.sorted()
	if len(mons) == 0 {
		return Polynomial{}
	}
	return Polynomial{Mons: mons}.Clone()
}

// Eval evaluates p under the valuation val.
func (p Polynomial) Eval(val func(Var) float64) float64 {
	s := 0.0
	for _, m := range p.Mons {
		s += m.Eval(val)
	}
	return s
}

// EvalDense evaluates p under a dense valuation indexed by Var. Variables
// with Var >= len(vals) evaluate to 1 (the identity valuation), matching the
// convention that un-assigned provenance variables keep their default
// multiplier of 1.
func (p Polynomial) EvalDense(vals []float64) float64 {
	s := 0.0
	for _, m := range p.Mons {
		x := m.Coef
		for _, t := range m.Terms {
			v := 1.0
			if int(t.Var) < len(vals) {
				v = vals[t.Var]
			}
			x *= ipow(v, t.Exp)
		}
		s += x
	}
	return s
}

// Equal reports exact structural equality (including coefficients).
func Equal(p, q Polynomial) bool {
	if len(p.Mons) != len(q.Mons) {
		return false
	}
	for i := range p.Mons {
		if p.Mons[i].Coef != q.Mons[i].Coef || compareTerms(p.Mons[i].Terms, q.Mons[i].Terms) != 0 {
			return false
		}
	}
	return true
}

// AlmostEqual reports structural equality with coefficients compared up to
// absolute-or-relative tolerance eps.
func AlmostEqual(p, q Polynomial, eps float64) bool {
	if len(p.Mons) != len(q.Mons) {
		return false
	}
	for i := range p.Mons {
		if compareTerms(p.Mons[i].Terms, q.Mons[i].Terms) != 0 {
			return false
		}
		if !floatNear(p.Mons[i].Coef, q.Mons[i].Coef, eps) {
			return false
		}
	}
	return true
}

func floatNear(a, b, eps float64) bool {
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

// sortAndMerge re-establishes the canonical order of mons, merging equal
// term vectors. It is the slow path used by Builder.Polynomial.
func sortAndMerge(mons []Monomial) []Monomial {
	slices.SortFunc(mons, func(a, b Monomial) int { return compareTerms(a.Terms, b.Terms) })
	out := mons[:0]
	for _, m := range mons {
		if m.Coef == 0 {
			continue
		}
		if len(out) > 0 && compareTerms(out[len(out)-1].Terms, m.Terms) == 0 {
			out[len(out)-1].Coef += m.Coef
			if out[len(out)-1].Coef == 0 {
				out = out[:len(out)-1]
			}
			continue
		}
		out = append(out, m)
	}
	return out
}

// Builder accumulates monomials and produces a canonical Polynomial.
// The zero Builder is ready to use.
type Builder struct {
	mons []Monomial
}

// Grow pre-allocates capacity for n monomials.
func (b *Builder) Grow(n int) {
	if cap(b.mons)-len(b.mons) < n {
		ns := make([]Monomial, len(b.mons), len(b.mons)+n)
		copy(ns, b.mons)
		b.mons = ns
	}
}

// Add appends the monomial coef·terms (terms may be unsorted / repeated).
func (b *Builder) Add(coef float64, terms ...Term) {
	b.AddMonomial(Mono(coef, terms...))
}

// AddMonomial appends a canonical monomial.
func (b *Builder) AddMonomial(m Monomial) {
	b.mons = append(b.mons, m)
}

// AddPolynomial appends all monomials of p.
func (b *Builder) AddPolynomial(p Polynomial) {
	b.mons = append(b.mons, p.Mons...)
}

// Polynomial canonicalizes the accumulated monomials and resets the builder.
func (b *Builder) Polynomial() Polynomial {
	p := Polynomial{Mons: sortAndMerge(b.mons)}
	b.mons = nil
	return p
}
