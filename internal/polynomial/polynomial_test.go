package polynomial

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNamesIntern(t *testing.T) {
	n := NewNames()
	a := n.Var("a")
	b := n.Var("b")
	if a == b {
		t.Fatalf("distinct names got same Var %d", a)
	}
	if got := n.Var("a"); got != a {
		t.Fatalf("re-interning a: got %d want %d", got, a)
	}
	if n.Name(a) != "a" || n.Name(b) != "b" {
		t.Fatalf("round trip failed: %q %q", n.Name(a), n.Name(b))
	}
	if n.Len() != 2 {
		t.Fatalf("Len = %d, want 2", n.Len())
	}
	if _, ok := n.Lookup("c"); ok {
		t.Fatal("Lookup of absent name reported ok")
	}
	c := n.Clone()
	c.Var("c")
	if n.Len() != 2 || c.Len() != 3 {
		t.Fatalf("clone not independent: %d %d", n.Len(), c.Len())
	}
}

func TestNamesVars(t *testing.T) {
	n := NewNames()
	vs := n.Vars("x", "y", "x")
	if len(vs) != 3 || vs[0] != vs[2] || vs[0] == vs[1] {
		t.Fatalf("Vars = %v", vs)
	}
}

func TestNamePanicsOnForeignVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Var")
		}
	}()
	NewNames().Name(5)
}

func TestMonoNormalization(t *testing.T) {
	n := NewNames()
	x, y := n.Var("x"), n.Var("y")
	m := Mono(2, T(y), T(x), T(y)) // 2*y*x*y = 2*x*y^2
	if len(m.Terms) != 2 || m.Terms[0].Var != x || m.Terms[0].Exp != 1 || m.Terms[1].Var != y || m.Terms[1].Exp != 2 {
		t.Fatalf("normalize: %+v", m)
	}
	if e, ok := m.ExpOf(y); !ok || e != 2 {
		t.Fatalf("ExpOf(y) = %d,%v", e, ok)
	}
	if _, ok := m.ExpOf(Var(99)); ok {
		t.Fatal("ExpOf of absent var reported ok")
	}
	wo := m.WithoutVar(y)
	if len(wo.Terms) != 1 || wo.Terms[0].Var != x {
		t.Fatalf("WithoutVar: %+v", wo)
	}
}

func TestMonoZeroExponentCancels(t *testing.T) {
	m := Mono(3, TExp(0, 2), TExp(0, -2))
	if !m.IsConstant() {
		t.Fatalf("x^2*x^-2 should normalize to constant, got %+v", m)
	}
}

func TestMulMono(t *testing.T) {
	n := NewNames()
	x, y, z := n.Var("x"), n.Var("y"), n.Var("z")
	a := Mono(2, T(x), T(y))
	b := Mono(3, T(y), T(z))
	c := MulMono(a, b)
	want := Mono(6, T(x), TExp(y, 2), T(z))
	if c.Coef != want.Coef || compareTerms(c.Terms, want.Terms) != 0 {
		t.Fatalf("MulMono = %+v, want %+v", c, want)
	}
}

func TestAddMergesAndCancels(t *testing.T) {
	n := NewNames()
	x := n.Var("x")
	p := New(Mono(2, T(x)), Mono(1))
	q := New(Mono(-2, T(x)), Mono(4))
	r := Add(p, q)
	if c, ok := r.IsConstant(); !ok || c != 5 {
		t.Fatalf("2x+1 + (-2x+4) = %v, want constant 5", r.String(n))
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	n := NewNames()
	x := n.Var("x")
	var b Builder
	b.Add(1.5, T(x))
	b.Add(2.5, T(x))
	b.Add(0, T(x))
	p := b.Polynomial()
	if len(p.Mons) != 1 || p.Mons[0].Coef != 4 {
		t.Fatalf("builder merge: %s", p.String(n))
	}
}

func TestMulDistributes(t *testing.T) {
	n := NewNames()
	x, y := n.Var("x"), n.Var("y")
	// (x+1)(y+2) = xy + 2x + y + 2
	p := New(Mono(1, T(x)), Mono(1))
	q := New(Mono(1, T(y)), Mono(2))
	r := Mul(p, q)
	want := New(Mono(1, T(x), T(y)), Mono(2, T(x)), Mono(1, T(y)), Mono(2))
	if !Equal(r, want) {
		t.Fatalf("got %s want %s", r.String(n), want.String(n))
	}
}

func TestMapVarsMerges(t *testing.T) {
	n := NewNames()
	b1, b2, sb := n.Var("b1"), n.Var("b2"), n.Var("SB")
	// 3*b1 + 4*b2 --[b1,b2 -> SB]--> 7*SB
	p := New(Mono(3, T(b1)), Mono(4, T(b2)))
	q := mapPoly(p, func(v Var) Var {
		if v == b1 || v == b2 {
			return sb
		}
		return v
	})
	want := New(Mono(7, T(sb)))
	if !Equal(q, want) {
		t.Fatalf("mapped: got %s want %s", q.String(n), want.String(n))
	}
}

func TestMapVarsExponentMerge(t *testing.T) {
	n := NewNames()
	x, y, u := n.Var("x"), n.Var("y"), n.Var("u")
	// x*y --[x,y->u]--> u^2
	p := New(Mono(5, T(x), T(y)))
	q := mapPoly(p, func(Var) Var { return u })
	want := New(Mono(5, TExp(u, 2)))
	if !Equal(q, want) {
		t.Fatalf("got %s want %s", q.String(n), want.String(n))
	}
}

func TestEval(t *testing.T) {
	n := NewNames()
	x, y := n.Var("x"), n.Var("y")
	p := New(Mono(2, TExp(x, 2)), Mono(3, T(y)), Mono(-1))
	val := func(v Var) float64 {
		if v == x {
			return 3
		}
		return 5
	}
	if got := p.Eval(val); got != 2*9+15-1 {
		t.Fatalf("Eval = %v, want 32", got)
	}
	dense := []float64{3, 5}
	if got := p.EvalDense(dense); got != 32 {
		t.Fatalf("EvalDense = %v, want 32", got)
	}
}

func TestEvalDenseDefaultsToOne(t *testing.T) {
	n := NewNames()
	x := n.Var("x")
	p := New(Mono(7, T(x)))
	if got := p.EvalDense(nil); got != 7 {
		t.Fatalf("EvalDense(nil) = %v, want 7 (identity valuation)", got)
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	n := NewNames()
	cases := []string{
		"0",
		"42",
		"-3.5",
		"x",
		"2*x",
		"x^2",
		"208.8*p1*m1 + 240*p1*m3",
		"-x + y - 7",
		"2*x^3*y + 0.5*z",
	}
	for _, in := range cases {
		p := MustParse(in, n)
		out := p.String(n)
		q := MustParse(out, n)
		if !Equal(p, q) {
			t.Errorf("round trip %q -> %q -> not equal", in, out)
		}
	}
}

func TestParsePaperExample(t *testing.T) {
	n := NewNames()
	p := MustParse("208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", n)
	if p.NumMonomials() != 8 {
		t.Fatalf("P1 has %d monomials, want 8", p.NumMonomials())
	}
	if vs, _ := p.Vars(nil, nil); len(vs) != 6 {
		t.Fatalf("P1 has %d distinct vars, want 6", len(vs))
	}
	// Under the all-ones valuation P1 sums its coefficients.
	sum := p.Eval(func(Var) float64 { return 1 })
	if math.Abs(sum-(208.8+240+127.4+114.45+75.9+72.5+42+24.2)) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestParseErrors(t *testing.T) {
	n := NewNames()
	bad := []string{"", "+", "x +", "2**x", "x^", "x^0", "x^-1", "3..5", "@", "x y"}
	for _, in := range bad {
		if _, err := Parse(in, n); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseImplicitCoefficientAndMergedInput(t *testing.T) {
	n := NewNames()
	p := MustParse("x*x + x^2", n)
	x, _ := n.Lookup("x")
	want := New(Mono(2, TExp(x, 2)))
	if !Equal(p, want) {
		t.Fatalf("got %s", p.String(n))
	}
}

func TestSetBasics(t *testing.T) {
	n := NewNames()
	s := NewSet(n)
	s.Add("g1", MustParse("2*x + 3*y", n))
	s.Add("g2", MustParse("x*y", n))
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3", s.Size())
	}
	if s.NumVars() != 2 {
		t.Fatalf("NumVars = %d, want 2", s.NumVars())
	}
	if s.NumTerms() != 4 {
		t.Fatalf("NumTerms = %d, want 4", s.NumTerms())
	}
	if _, ok := s.Poly("g1"); !ok {
		t.Fatal("Poly(g1) not found")
	}
	if _, ok := s.Poly("nope"); ok {
		t.Fatal("Poly(nope) found")
	}
	vals := s.EvalAll(func(Var) float64 { return 2 })
	if vals[0] != 10 || vals[1] != 4 {
		t.Fatalf("EvalAll = %v", vals)
	}
}

func TestSetMapVars(t *testing.T) {
	n := NewNames()
	s := NewSet(n)
	s.Add("g", MustParse("2*a + 3*b", n))
	u := n.Var("u")
	m := mapSet(s, func(Var) Var { return u }, 1)
	if m.Size() != 1 {
		t.Fatalf("mapped size = %d, want 1", m.Size())
	}
	if got := m.Polys[0].String(n); got != "5*u" {
		t.Fatalf("mapped poly = %s", got)
	}
	// Original untouched.
	if s.Size() != 2 {
		t.Fatal("mapping mutated the source set")
	}
}

func TestSetClone(t *testing.T) {
	n := NewNames()
	s := NewSet(n)
	s.Add("g", MustParse("x + y", n))
	c := s.Clone()
	c.Polys[0].Mons[0].Coef = 99
	if s.Polys[0].Mons[0].Coef == 99 {
		t.Fatal("Clone shares monomial storage")
	}
}

// --- property-based tests -------------------------------------------------

// randPoly generates a random canonical polynomial over nv variables.
func randPoly(r *rand.Rand, nv int) Polynomial {
	var b Builder
	nm := r.Intn(6)
	for i := 0; i < nm; i++ {
		coef := float64(r.Intn(21) - 10)
		var terms []Term
		nt := r.Intn(4)
		for j := 0; j < nt; j++ {
			terms = append(terms, TExp(Var(r.Intn(nv)), int32(1+r.Intn(3))))
		}
		b.Add(coef, terms...)
	}
	return b.Polynomial()
}

func randVal(r *rand.Rand, nv int) []float64 {
	vals := make([]float64, nv)
	for i := range vals {
		vals[i] = float64(r.Intn(7)) - 3 // small integers keep arithmetic exact
	}
	return vals
}

func TestPropertyRingLaws(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const nv = 4
	for i := 0; i < 300; i++ {
		p, q, s := randPoly(r, nv), randPoly(r, nv), randPoly(r, nv)
		if !Equal(Add(p, q), Add(q, p)) {
			t.Fatalf("Add not commutative: %v %v", p, q)
		}
		if !Equal(Add(Add(p, q), s), Add(p, Add(q, s))) {
			t.Fatalf("Add not associative")
		}
		if !Equal(Mul(p, q), Mul(q, p)) {
			t.Fatalf("Mul not commutative")
		}
		if !Equal(Mul(Mul(p, q), s), Mul(p, Mul(q, s))) {
			t.Fatalf("Mul not associative")
		}
		if !Equal(Mul(p, Add(q, s)), Add(Mul(p, q), Mul(p, s))) {
			t.Fatalf("Mul does not distribute over Add")
		}
		if !Equal(Add(p, Zero()), p) {
			t.Fatalf("additive identity broken")
		}
		if !Equal(Mul(p, Const(1)), p) {
			t.Fatalf("multiplicative identity broken")
		}
		if !Mul(p, Zero()).IsZero() {
			t.Fatalf("annihilation broken")
		}
		if !Add(p, Neg(p)).IsZero() {
			t.Fatalf("additive inverse broken")
		}
	}
}

func TestPropertyEvalHomomorphism(t *testing.T) {
	// Evaluation is a ring homomorphism: eval(p+q) = eval(p)+eval(q) and
	// eval(p*q) = eval(p)*eval(q). This is the algebraic heart of the
	// commutativity-with-valuation guarantee the paper relies on.
	r := rand.New(rand.NewSource(2))
	const nv = 4
	for i := 0; i < 300; i++ {
		p, q := randPoly(r, nv), randPoly(r, nv)
		vals := randVal(r, nv)
		val := func(v Var) float64 { return vals[v] }
		if got, want := Add(p, q).Eval(val), p.Eval(val)+q.Eval(val); got != want {
			t.Fatalf("eval(p+q)=%v != %v", got, want)
		}
		if got, want := Mul(p, q).Eval(val), p.Eval(val)*q.Eval(val); got != want {
			t.Fatalf("eval(p*q)=%v != %v", got, want)
		}
	}
}

func TestNaturalCoefficientSemiringLaws(t *testing.T) {
	// N[X] proper: natural coefficients and linear terms, the shape query
	// provenance takes before any valuation.
	r := rand.New(rand.NewSource(31))
	sample := func() Polynomial {
		var b Builder
		for m := 0; m < r.Intn(4); m++ {
			var terms []Term
			for k := 0; k < r.Intn(3); k++ {
				terms = append(terms, T(Var(r.Intn(4))))
			}
			b.Add(float64(r.Intn(5)), terms...)
		}
		return b.Polynomial()
	}
	for i := 0; i < 200; i++ {
		a, b, c := sample(), sample(), sample()
		if !Equal(Add(a, b), Add(b, a)) {
			t.Fatalf("+ not commutative")
		}
		if !Equal(Add(Add(a, b), c), Add(a, Add(b, c))) {
			t.Fatalf("+ not associative")
		}
		if !Equal(Mul(a, b), Mul(b, a)) {
			t.Fatalf("· not commutative")
		}
		if !Equal(Mul(Mul(a, b), c), Mul(a, Mul(b, c))) {
			t.Fatalf("· not associative")
		}
		if !Equal(Add(a, Zero()), a) {
			t.Fatalf("0 not additive identity")
		}
		if !Equal(Mul(a, Const(1)), a) {
			t.Fatalf("1 not multiplicative identity")
		}
		if !Equal(Mul(a, Zero()), Zero()) {
			t.Fatalf("0 not annihilating")
		}
		if !Equal(Mul(a, Add(b, c)), Add(Mul(a, b), Mul(a, c))) {
			t.Fatalf("· does not distribute over +")
		}
	}
}

func TestEvalIntoReal(t *testing.T) {
	names := NewNames()
	p := MustParse("2*x^2*y + 3*y + 5", names)
	x, _ := names.Lookup("x")
	vals := func(v Var) float64 {
		if v == x {
			return 3
		}
		return 2
	}
	// 2·3²·2 + 3·2 + 5
	if got := p.Eval(vals); got != 47 {
		t.Fatalf("Eval = %v, want 47", got)
	}
}

func TestPropertyMapVarsPreservesValuation(t *testing.T) {
	// For any map f and valuation val on metas, evaluating p mapped by f
	// under val equals evaluating p under val∘f. This is exactly the
	// soundness of abstraction for tree-consistent valuations.
	r := rand.New(rand.NewSource(3))
	const nv = 5
	for i := 0; i < 300; i++ {
		p := randPoly(r, nv)
		mapping := make([]Var, nv)
		for j := range mapping {
			mapping[j] = Var(r.Intn(nv))
		}
		f := func(v Var) Var { return mapping[v] }
		vals := randVal(r, nv)
		val := func(v Var) float64 { return vals[v] }
		got := mapPoly(p, f).Eval(val)
		want := p.Eval(func(v Var) float64 { return val(f(v)) })
		if got != want {
			t.Fatalf("mapped valuation mismatch: %v != %v", got, want)
		}
	}
}

func TestPropertyParsePrintFixpoint(t *testing.T) {
	n := NewNames()
	for i := 0; i < 6; i++ {
		n.Var(string(rune('a' + i)))
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		p := randPoly(r, 6)
		s1 := p.String(n)
		q := MustParse(s1, n)
		if !Equal(p, q) {
			t.Fatalf("parse(print(p)) != p for %s", s1)
		}
		if s2 := q.String(n); s1 != s2 {
			t.Fatalf("printing not a fixpoint: %q vs %q", s1, s2)
		}
	}
}

func TestQuickCanonicalAddIsMerge(t *testing.T) {
	// Adding a polynomial to itself doubles each coefficient and preserves
	// the monomial structure.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r, 4)
		d := Add(p, p)
		if len(d.Mons) > len(p.Mons) {
			return false
		}
		return Equal(d, Scale(p, 2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubSelfIsZero(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r, 4)
		return Sub(p, p).IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIpow(t *testing.T) {
	if ipow(2, 10) != 1024 {
		t.Fatalf("2^10 = %v", ipow(2, 10))
	}
	if ipow(3, 0) != 1 {
		t.Fatalf("3^0 = %v", ipow(3, 0))
	}
	if ipow(2, -2) != 0.25 {
		t.Fatalf("2^-2 = %v", ipow(2, -2))
	}
}

func TestAlmostEqual(t *testing.T) {
	n := NewNames()
	x := n.Var("x")
	p := New(Mono(1.0000001, T(x)))
	q := New(Mono(1.0, T(x)))
	if !AlmostEqual(p, q, 1e-5) {
		t.Fatal("AlmostEqual too strict")
	}
	if AlmostEqual(p, q, 1e-9) {
		t.Fatal("AlmostEqual too lax")
	}
	if AlmostEqual(p, Zero(), 1e-3) {
		t.Fatal("AlmostEqual ignores structure")
	}
}

func TestDegreeAndCounts(t *testing.T) {
	n := NewNames()
	p := MustParse("2*x^3*y + z + 5", n)
	if p.NumTerms() != 3 {
		t.Fatalf("NumTerms = %d, want 3", p.NumTerms())
	}
	if p.NumMonomials() != 3 {
		t.Fatalf("NumMonomials = %d", p.NumMonomials())
	}
}

// TestUsedVarsMatchesMapReference: the seen-slice UsedVars/Vars return
// what the map-based ones did — every distinct variable once, UsedVars in
// ascending order — including variables far above the rest and a negative
// (invalid) one.
func TestUsedVarsMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		set := NewSet(nil)
		want := map[Var]bool{}
		for pi := r.Intn(5); pi >= 0; pi-- {
			var mons []Monomial
			for mi := r.Intn(20); mi > 0; mi-- {
				var ts []Term
				for n := r.Intn(4); n > 0; n-- {
					v := Var(r.Intn(30))
					switch r.Intn(20) {
					case 0:
						v = Var(1000 + r.Intn(5000))
					case 1:
						v = NoVar
					}
					ts = append(ts, T(v))
					want[v] = true
				}
				mons = append(mons, Monomial{Coef: 1, Terms: ts})
			}
			p := Polynomial{Mons: mons}
			set.Add("k", p)
			vs, _ := p.Vars(nil, nil)
			slices.Sort(vs)
			if len(slices.Compact(slices.Clone(vs))) != len(vs) {
				t.Fatalf("seed %d: Vars repeats a variable: %v", seed, vs)
			}
		}
		got := set.UsedVars()
		if len(got) != len(want) || !slices.IsSorted(got) {
			t.Fatalf("seed %d: UsedVars = %v, want the %d distinct variables ascending", seed, got, len(want))
		}
		for _, v := range got {
			if !want[v] {
				t.Fatalf("seed %d: UsedVars lists %d, which no term holds", seed, v)
			}
		}
	}
}
