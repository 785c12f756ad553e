package polynomial

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refAccumulate is the accumulator's contract, naively: a map from term
// vector to the left-to-right float64 sum of its contributions in arrival
// order, zero sums dropped, the rest in canonical order.
func refAccumulate(mons []Monomial) Polynomial {
	sums := map[string]*Monomial{}
	for _, m := range mons {
		k := string(appendTermsKey(nil, m.Terms))
		if sums[k] == nil {
			sums[k] = &Monomial{Terms: m.Terms}
		}
		sums[k].Coef += m.Coef
	}
	var out []Monomial
	for _, m := range sums {
		if m.Coef != 0 {
			out = append(out, *m)
		}
	}
	slices.SortFunc(out, func(a, b Monomial) int { return compareTerms(a.Terms, b.Terms) })
	return Polynomial{Mons: out}
}

func sameBits(t testing.TB, got, want Polynomial) {
	t.Helper()
	if len(got.Mons) != len(want.Mons) {
		t.Fatalf("%d monomials, want %d", len(got.Mons), len(want.Mons))
	}
	for i := range want.Mons {
		if compareTerms(got.Mons[i].Terms, want.Mons[i].Terms) != 0 ||
			math.Float64bits(got.Mons[i].Coef) != math.Float64bits(want.Mons[i].Coef) {
			t.Fatalf("monomial %d: %v, want %v", i, got.Mons[i], want.Mons[i])
		}
	}
}

// accumulatorInput decodes bytes into monomials over few variables, so term
// vectors repeat: the empty term vector, zero coefficients, and pairs that
// cancel exactly all occur.
func accumulatorInput(data []byte) []Monomial {
	var mons []Monomial
	for len(data) >= 2 {
		shape, c := data[0], data[1]
		data = data[2:]
		var terms []Term
		for v := Var(0); v < 4; v++ {
			if e := int32(shape >> (2 * v) & 3); e != 0 {
				terms = append(terms, Term{Var: v, Exp: e})
			}
		}
		coef := float64(int8(c)) / 8 // repeats, so +x and -x meet; 0 occurs
		if c == 0x7f {
			coef = 1e-310 // a subnormal
		}
		mons = append(mons, Monomial{Coef: coef, Terms: terms})
	}
	return mons
}

func checkAccumulator(t testing.TB, mons []Monomial) {
	var a Accumulator
	for _, m := range mons {
		a.Add(m.Coef, m.Terms)
	}
	sameBits(t, a.Polynomial(), refAccumulate(mons))
	if len(a.mons) != 0 || a.slots != nil {
		t.Fatal("Polynomial did not reset the accumulator")
	}
}

// TestAccumulatorMatchesReference covers both regimes (the linear scan and
// the open-addressed table, through several growths) on random input.
func TestAccumulatorMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	for i := 0; i < 400; i++ {
		data := make([]byte, 2*r.Intn(400))
		r.Read(data)
		if i%3 == 0 { // few distinct term vectors: stays linear
			for j := 0; j < len(data); j += 2 {
				data[j] &= 0x05
			}
		}
		checkAccumulator(t, accumulatorInput(data))
	}
	// Many distinct term vectors with float coefficients whose sum depends
	// on the order: arrival order is the contract.
	var mons []Monomial
	for i := 0; i < 5000; i++ {
		mons = append(mons, Monomial{Coef: r.NormFloat64() * math.Pow(10, float64(r.Intn(12))), Terms: []Term{{Var: Var(r.Intn(300)), Exp: 1}, {Var: 300 + Var(r.Intn(3)), Exp: 1}}})
	}
	checkAccumulator(t, mons)
	var a Accumulator
	a.AddPolynomial(New(mons[:100]...))
	a.AddPolynomial(New(mons[:100]...))
	sameBits(t, a.Polynomial(), Scale(New(mons[:100]...), 2))
}

func FuzzAccumulator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 8, 0, 0xf8, 1, 8})                  // constants cancel; x stays
	f.Add([]byte{5, 0, 5, 16, 4, 16, 5, 0xf0, 0, 0x7f}) // zero coefficient, cancellation, a subnormal constant
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAccumulator(t, accumulatorInput(data))
	})
}
