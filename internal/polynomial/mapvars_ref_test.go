package polynomial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refMapVars is MapVars by its stated rule, naively: map every monomial,
// normalise it, merge equal term vectors into the first one seen by
// left-to-right float64 addition in p's order, drop the sums that are
// exactly zero and put the distinct vectors in canonical order. Their keys
// are distinct, so any correct sort gives the same sequence: the reference
// does not depend on how a sort permutes equal elements. The production
// code must return the same monomials in the same order with the same
// coefficient bits.
func refMapVars(p Polynomial, f func(Var) Var) Polynomial {
	index := map[string]int{}
	var mons []Monomial
	for _, m := range p.Mons {
		ts := make([]Term, len(m.Terms))
		for i, t := range m.Terms {
			ts[i] = Term{Var: f(t.Var), Exp: t.Exp}
		}
		nm := Mono(m.Coef, ts...)
		k := string(appendTermsKey(nil, nm.Terms))
		if i, ok := index[k]; ok {
			mons[i].Coef += nm.Coef
			continue
		}
		index[k] = len(mons)
		mons = append(mons, nm)
	}
	var out []Monomial
	for _, m := range mons {
		if m.Coef != 0 {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return compareTerms(out[i].Terms, out[j].Terms) < 0 })
	return Polynomial{Mons: out}
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

// TestMapVarsMatchesReference compares MapVars and Set.MapVarsN with the
// rule reference on hand-built cases for each thing a substitution can do
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
	all := NewSet(nil) // every polynomial checked, for the Set.MapVarsN pass at the end
	check := func(ctx string, p Polynomial) {
		t.Helper()
		all.Add(ctx, p)
		for _, mp := range mappings {
			if diff := bitIdentical(MapVars(p, mp.f), refMapVars(p, mp.f)); diff != "" {
				t.Fatalf("%s, %s: MapVars: %s", ctx, mp.name, diff)
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
			size = 4096 + r.Intn(2000) // the accumulator's table grows several times
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

	// The same polynomials as one set: a worker's scratch is reused from a
	// large polynomial to a small one and back, at every worker count.
	for _, mp := range mappings {
		for _, w := range []int{1, 2, 8} {
			got := all.MapVarsN(mp.f, w)
			for i, p := range all.Polys {
				if diff := bitIdentical(got.Polys[i], refMapVars(p, mp.f)); diff != "" {
					t.Fatalf("%s, %s: Set.MapVarsN workers=%d: %s", all.Keys[i], mp.name, w, diff)
				}
			}
		}
	}
}

// mapVarsInput decodes bytes into a substitution over eight variables (any
// table: non-injective, order-reversing, identity) and a set of raw
// polynomials over them. Per monomial and variable two bits choose absent,
// exponent 1, exponent 2 or an explicit zero exponent; coefficients are
// tenths (so the order of a sum shows in its last bit, and +x meets -x), a
// subnormal, and ±1e16 (which absorbs the rest in one order and not in
// another).
func mapVarsInput(data []byte) (func(Var) Var, *Set) {
	var table [8]Var
	for v := range table {
		table[v] = Var(v)
		if len(data) > 0 {
			table[v], data = Var(data[0]&7), data[1:]
		}
	}
	perPoly := 1
	if len(data) > 0 {
		perPoly, data = 1+int(data[0]&31), data[1:]
	}
	set := NewSet(nil)
	var mons []Monomial
	flush := func() {
		set.Add(fmt.Sprintf("p%d", set.Len()), Polynomial{Mons: mons})
		mons = nil
	}
	for ; len(data) >= 3; data = data[3:] {
		shape := uint(data[0]) | uint(data[1])<<8
		var terms []Term
		for v := Var(0); v < 8; v++ {
			if e := shape >> (2 * v) & 3; e != 0 {
				terms = append(terms, Term{Var: v, Exp: int32(e % 3)})
			}
		}
		coef := float64(int8(data[2])) / 10
		switch data[2] {
		case 0x7f:
			coef = 1e-310
		case 0x7e:
			coef = 1e16
		case 0x80:
			coef = -1e16
		}
		if mons = append(mons, Monomial{Coef: coef, Terms: terms}); len(mons) == perPoly {
			flush()
		}
	}
	flush()
	return func(v Var) Var { return table[v] }, set
}

func checkMapVars(t testing.TB, f func(Var) Var, set *Set) {
	t.Helper()
	seq := set.MapVarsN(f, 1)
	for i, p := range set.Polys {
		got := seq.Polys[i]
		for j, m := range got.Mons {
			if m.Coef == 0 || (j > 0 && compareTerms(got.Mons[j-1].Terms, m.Terms) >= 0) {
				t.Fatalf("polynomial %d: monomial %d of %v is zero or out of order", i, j, got.Mons)
			}
			for k, tm := range m.Terms {
				if tm.Exp == 0 || (k > 0 && m.Terms[k-1].Var >= tm.Var) {
					t.Fatalf("polynomial %d: monomial %d has non-canonical terms %v", i, j, m.Terms)
				}
			}
		}
		if diff := bitIdentical(got, refMapVars(p, f)); diff != "" {
			t.Fatalf("polynomial %d: against the rule: %s", i, diff)
		}
		if diff := bitIdentical(MapVars(p, f), got); diff != "" {
			t.Fatalf("polynomial %d: MapVars against Set.MapVarsN: %s", i, diff)
		}
		// The Builder route sums in its sort's order: the same polynomial
		// up to rounding, which is bounded by the mass that was summed.
		var b Builder
		mass := 0.0
		for _, m := range p.Mons {
			ts := make([]Term, len(m.Terms))
			for k, tm := range m.Terms {
				ts[k] = Term{Var: f(tm.Var), Exp: tm.Exp}
			}
			b.Add(m.Coef, ts...)
			mass += math.Abs(m.Coef)
		}
		for _, m := range Sub(got, b.Polynomial()).Mons {
			if math.Abs(m.Coef) > 1e-12*mass {
				t.Fatalf("polynomial %d: differs from the Builder route by %g on %v (mass %g)", i, m.Coef, m.Terms, mass)
			}
		}
	}
	for _, w := range []int{2, 8} {
		par := set.MapVarsN(f, w)
		for i := range set.Polys {
			if diff := bitIdentical(par.Polys[i], seq.Polys[i]); diff != "" {
				t.Fatalf("polynomial %d: workers=%d against 1: %s", i, w, diff)
			}
		}
	}
}

// FuzzMapVars checks, on a random polynomial set under a random
// substitution, that the output is canonical, bit-equal to the rule
// reference, equal to the Builder route up to rounding, and bit-identical
// for 1, 2 and 8 workers.
func FuzzMapVars(f *testing.F) {
	f.Add([]byte{})
	// Everything onto variable 3; 0.1, 0.2, 0.3 and 1e16 meet in one sum.
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 4, 1, 0, 1, 4, 0, 2, 16, 0, 3, 64, 0, 0x7e})
	// Pairs merge; x0*x1 becomes x0^2; an explicit zero exponent; +x and -x cancel; a subnormal.
	f.Add([]byte{0, 0, 2, 2, 4, 4, 6, 6, 2, 5, 0, 7, 3, 0, 9, 1, 0, 20, 4, 0, 0xec, 0, 0, 0x7f})
	// The order reversed, one polynomial per monomial.
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 0, 0x1b, 0x06, 11, 0x1b, 0x06, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, set := mapVarsInput(data)
		checkMapVars(t, sub, set)
	})
}
