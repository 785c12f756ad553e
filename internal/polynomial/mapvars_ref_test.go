package polynomial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refMapVars is MapVars as it was before the slab rewrite, kept as the
// reference for bit-identity: one term slice per monomial, every monomial
// normalized through a reflect-based sort.Slice whether or not the
// substitution disturbed it, and the monomials put back in canonical order
// by sort.Slice. The production code must return the same monomials in the
// same order with the same coefficient bits — which, for monomials that
// merge, means the same left-to-right floating-point sums.
func refMapVars(p Polynomial, f func(Var) Var) Polynomial {
	var mons []Monomial
	for _, m := range p.Mons {
		ts := make([]Term, len(m.Terms))
		for i, t := range m.Terms {
			ts[i] = Term{Var: f(t.Var), Exp: t.Exp}
		}
		if len(ts) > 1 {
			sort.Slice(ts, func(i, j int) bool { return ts[i].Var < ts[j].Var })
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
		mons = append(mons, Monomial{Coef: m.Coef, Terms: out})
	}
	sort.Slice(mons, func(i, j int) bool {
		return compareTerms(mons[i].Terms, mons[j].Terms) < 0
	})
	merged := mons[:0]
	for _, m := range mons {
		if m.Coef == 0 {
			continue
		}
		if len(merged) > 0 && compareTerms(merged[len(merged)-1].Terms, m.Terms) == 0 {
			merged[len(merged)-1].Coef += m.Coef
			if merged[len(merged)-1].Coef == 0 {
				merged = merged[:len(merged)-1]
			}
			continue
		}
		merged = append(merged, m)
	}
	return Polynomial{Mons: merged}
}

// bitIdentical reports the first difference between two polynomials down
// to the bits of every coefficient and every term, or "".
func bitIdentical(got, want Polynomial) string {
	if len(got.Mons) != len(want.Mons) {
		return fmt.Sprintf("%d monomials, want %d", len(got.Mons), len(want.Mons))
	}
	for i, w := range want.Mons {
		g := got.Mons[i]
		if math.Float64bits(g.Coef) != math.Float64bits(w.Coef) {
			return fmt.Sprintf("monomial %d: coefficient %v (%#x), want %v (%#x)", i, g.Coef, math.Float64bits(g.Coef), w.Coef, math.Float64bits(w.Coef))
		}
		if len(g.Terms) != len(w.Terms) {
			return fmt.Sprintf("monomial %d: terms %v, want %v", i, g.Terms, w.Terms)
		}
		for j := range w.Terms {
			if g.Terms[j] != w.Terms[j] {
				return fmt.Sprintf("monomial %d: terms %v, want %v", i, g.Terms, w.Terms)
			}
		}
	}
	return ""
}

// TestMapVarsMatchesReference compares MapVars and MapVarsN with the
// pre-change body on hand-built cases for each thing a substitution can do
// — merge monomials, map two variables of one monomial to the same one
// (exponents add), cancel coefficients to exactly zero, leave the order
// intact — and on generated polynomials whose coefficients are chosen so
// that a different summation order gives different bits.
func TestMapVarsMatchesReference(t *testing.T) {
	const nVars = 12
	mappings := []struct {
		name string
		f    func(Var) Var
	}{
		{"identity", func(v Var) Var { return v }},
		{"pairs", func(v Var) Var { return v &^ 1 }},
		{"reverse", func(v Var) Var { return nVars - 1 - v }},
		{"all-to-one", func(Var) Var { return 3 }},
		{"upper-half-to-zero", func(v Var) Var {
			if v >= nVars/2 {
				return 0
			}
			return v
		}},
		{"shift", func(v Var) Var { return v + nVars }},
	}
	check := func(ctx string, p Polynomial) {
		t.Helper()
		for _, mp := range mappings {
			want := refMapVars(p, mp.f)
			if diff := bitIdentical(MapVars(p, mp.f), want); diff != "" {
				t.Fatalf("%s, %s: MapVars: %s", ctx, mp.name, diff)
			}
			for _, w := range []int{1, 2, 8} {
				if diff := bitIdentical(MapVarsN(p, mp.f, w), want); diff != "" {
					t.Fatalf("%s, %s: MapVarsN workers=%d: %s", ctx, mp.name, w, diff)
				}
			}
		}
	}

	// Under "pairs": 2*v0*v4 and -2*v1*v4 cancel, v0*v1 becomes v0^2,
	// 0.1/0.2/0.3 sum in an order that shows in the last bit, v2*v6 stays.
	fixed := New(
		Mono(2, T(0), T(4)), Mono(-2, T(1), T(4)),
		Mono(1, T(0), T(1)),
		Mono(0.1, T(2), T(8)), Mono(0.2, T(3), T(8)), Mono(0.3, T(2), T(9)), Mono(1e16, T(3), T(9)),
		Mono(5, T(2), T(6)),
		Mono(7),
	)
	if got := MapVars(fixed, mappings[1].f); len(got.Mons) != 4 {
		t.Fatalf("fixed case under pairs: %d monomials, want 4 (one pair cancels)", len(got.Mons))
	}
	check("fixed", fixed)
	check("zero", Polynomial{})
	if MapVars(Polynomial{}, mappings[0].f).Mons != nil {
		t.Fatal("MapVars of the zero polynomial allocated")
	}
	// Inputs that are not canonical: a zero exponent, a repeated variable,
	// duplicate and out-of-order monomials, a zero coefficient.
	check("non-canonical", Polynomial{Mons: []Monomial{
		{Coef: 3, Terms: []Term{{Var: 5, Exp: 1}, {Var: 2, Exp: 0}, {Var: 1, Exp: 2}}},
		{Coef: 0.1, Terms: []Term{{Var: 4, Exp: 1}, {Var: 4, Exp: 1}}},
		{Coef: 0.2, Terms: []Term{{Var: 4, Exp: 2}}},
		{Coef: 0, Terms: []Term{{Var: 7, Exp: 1}}},
		{Coef: 0.3, Terms: []Term{{Var: 4, Exp: 2}}},
		{Coef: -1, Terms: []Term{{Var: 1, Exp: 1}, {Var: 1, Exp: -1}}},
	}})

	coefs := []float64{1, -1, 0.5, -0.5, 0.1, -0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 3, 1e-9}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		size := r.Intn(300)
		if seed%50 == 49 {
			size = minParallelMons + r.Intn(2000) // MapVarsN really splits
		}
		var b Builder
		for len(b.mons) < size {
			var ts []Term
			for n := r.Intn(5); n > 0; n-- {
				ts = append(ts, TExp(Var(r.Intn(nVars)), int32(1+r.Intn(3))))
			}
			b.Add(coefs[r.Intn(len(coefs))], ts...)
		}
		check(fmt.Sprintf("seed %d (%d monomials)", seed, size), b.Polynomial())
	}
}
