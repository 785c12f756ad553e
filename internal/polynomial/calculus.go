package polynomial

// Substitute replaces every occurrence of v in p by the polynomial q,
// expanding powers: x^e ↦ q^e. Substituting a single variable for another
// is equivalent to MapSource; substituting richer polynomials supports
// refinement scenarios such as "replace the meta-variable by 0.5·a + 0.5·b".
func Substitute(p Polynomial, v Var, q Polynomial) Polynomial {
	var b Builder
	for _, m := range p.Mons {
		e, ok := m.ExpOf(v)
		if !ok {
			b.AddMonomial(m)
			continue
		}
		rest := m.WithoutVar(v)
		term := New(rest)
		pow := powPoly(q, e)
		b.AddPolynomial(Mul(term, pow))
	}
	return b.Polynomial()
}

// powPoly computes q^e by repeated squaring (e >= 0).
func powPoly(q Polynomial, e int32) Polynomial {
	result := Const(1)
	base := q
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}
