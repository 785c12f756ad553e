package polynomial

import (
	"math/rand"
	"testing"
)

func TestDerivativeBasics(t *testing.T) {
	n := NewNames()
	x, _ := n.Var("x"), n.Var("y")

	cases := []struct{ in, want string }{
		{"x", "1"},
		{"5", "0"},
		{"x^3", "3*x^2"},
		{"2*x^2*y + 3*y", "4*x*y"},
		{"x + x^2 + x^3", "1 + 2*x + 3*x^2"},
		{"y^4", "0"},
	}
	for _, tc := range cases {
		p := MustParse(tc.in, n)
		want := MustParse(tc.want, n)
		got := Derivative(p, x)
		if !Equal(got, want) {
			t.Errorf("d/dx %s = %s, want %s", tc.in, got.String(n), tc.want)
		}
	}
}

func TestDerivativeLinearityAndProductRule(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	n := NewNames()
	for i := 0; i < 4; i++ {
		n.Var(string(rune('a' + i)))
	}
	v := Var(0)
	for i := 0; i < 200; i++ {
		p, q := randPoly(r, 4), randPoly(r, 4)
		// d(p+q) = dp + dq
		if !Equal(Derivative(Add(p, q), v), Add(Derivative(p, v), Derivative(q, v))) {
			t.Fatal("linearity broken")
		}
		// d(p*q) = dp*q + p*dq
		lhs := Derivative(Mul(p, q), v)
		rhs := Add(Mul(Derivative(p, v), q), Mul(p, Derivative(q, v)))
		if !Equal(lhs, rhs) {
			t.Fatalf("product rule broken:\np=%s\nq=%s", p.String(n), q.String(n))
		}
	}
}

func TestDerivativeNumerically(t *testing.T) {
	// Finite differences approximate the symbolic derivative.
	n := NewNames()
	p := MustParse("2*x^2*y + 3*x + y^2", n)
	x, _ := n.Lookup("x")
	at := func(xv, yv float64) float64 {
		return p.Eval(func(v Var) float64 {
			if v == x {
				return xv
			}
			return yv
		})
	}
	d := Derivative(p, x)
	got := d.Eval(func(v Var) float64 {
		if v == x {
			return 1.5
		}
		return 2.0
	})
	h := 1e-6
	want := (at(1.5+h, 2) - at(1.5-h, 2)) / (2 * h)
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("symbolic %v vs numeric %v", got, want)
	}
}

func TestSubstituteBasics(t *testing.T) {
	n := NewNames()
	x, _ := n.Var("x"), n.Var("y")

	// x -> y+1 in x^2 gives y^2 + 2y + 1.
	p := MustParse("x^2", n)
	q := MustParse("y + 1", n)
	got := Substitute(p, x, q)
	want := MustParse("y^2 + 2*y + 1", n)
	if !Equal(got, want) {
		t.Fatalf("got %s", got.String(n))
	}

	// Substitution into a polynomial without the variable is identity.
	r := MustParse("3*y + 7", n)
	if !Equal(Substitute(r, x, q), r) {
		t.Fatal("identity substitution broken")
	}

	// Substituting a constant evaluates that variable: x := 3.
	s := MustParse("2*x*y + x^2 + 5", n)
	bySub := Substitute(s, x, Const(3))
	if want := MustParse("6*y + 14", n); !Equal(bySub, want) {
		t.Fatalf("substitute const = %s, want %s", bySub.String(n), want.String(n))
	}
}

func TestSubstituteEvalConsistency(t *testing.T) {
	// Eval(Substitute(p, v, q), a) == Eval(p, a[v := Eval(q, a)]).
	r := rand.New(rand.NewSource(83))
	n := NewNames()
	for i := 0; i < 4; i++ {
		n.Var(string(rune('a' + i)))
	}
	for i := 0; i < 200; i++ {
		p, q := randPoly(r, 4), randPoly(r, 4)
		v := Var(r.Intn(4))
		vals := randVal(r, 4)
		val := func(u Var) float64 { return vals[u] }
		qAt := q.Eval(val)
		patched := func(u Var) float64 {
			if u == v {
				return qAt
			}
			return vals[u]
		}
		lhs := Substitute(p, v, q).Eval(val)
		rhs := p.Eval(patched)
		if lhs != rhs {
			t.Fatalf("substitution/eval mismatch: %v vs %v\np=%s q=%s v=%s",
				lhs, rhs, p.String(n), q.String(n), n.Name(v))
		}
	}
}

func TestSubstituteRefinementUseCase(t *testing.T) {
	// The refinement scenario from the docs: replace a meta-variable by a
	// convex combination of its leaves.
	n := NewNames()
	sb := n.Var("SB")
	p := New(Mono(10, T(sb), T(n.Var("m1"))))
	refined := Substitute(p, sb, MustParse("0.5*b1 + 0.5*b2", n))
	want := MustParse("5*b1*m1 + 5*b2*m1", n)
	if !Equal(refined, want) {
		t.Fatalf("refined = %s", refined.String(n))
	}
}

func TestPowPoly(t *testing.T) {
	n := NewNames()
	q := MustParse("x + 1", n)
	if got, want := powPoly(q, 0), Const(1); !Equal(got, want) {
		t.Fatal("q^0 != 1")
	}
	if got := powPoly(q, 3); !Equal(got, MustParse("x^3 + 3*x^2 + 3*x + 1", n)) {
		t.Fatalf("q^3 = %s", got.String(n))
	}
}
