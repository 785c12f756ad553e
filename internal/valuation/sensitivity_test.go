package valuation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

func TestSensitivityHandComputed(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	// P = 10*x*y + 3*x; at the identity point: dP/dx = 10+3 = 13, dP/dy = 10.
	set.Add("g", polynomial.MustParse("10*x*y + 3*x", names))
	s := Sensitivity(set, New(names))
	if len(s) != 2 {
		t.Fatalf("entries = %d", len(s))
	}
	if s[0].Name != "x" || math.Abs(s[0].Total-13) > 1e-12 {
		t.Fatalf("x: %+v", s[0])
	}
	if s[1].Name != "y" || math.Abs(s[1].Total-10) > 1e-12 {
		t.Fatalf("y: %+v", s[1])
	}
}

// derivative returns ∂p/∂v symbolically: the reference the sensitivity
// ranking is checked against.
func derivative(p polynomial.Polynomial, v polynomial.Var) polynomial.Polynomial {
	var b polynomial.Builder
	for _, m := range p.Mons {
		e, ok := m.ExpOf(v)
		if !ok {
			continue
		}
		nm := polynomial.Monomial{Coef: m.Coef * float64(e), Terms: make([]polynomial.Term, 0, len(m.Terms))}
		for _, t := range m.Terms {
			if t.Var == v {
				if t.Exp > 1 {
					nm.Terms = append(nm.Terms, polynomial.Term{Var: v, Exp: t.Exp - 1})
				}
				continue
			}
			nm.Terms = append(nm.Terms, t)
		}
		b.AddMonomial(nm)
	}
	return b.Polynomial()
}

func TestDerivativeBasics(t *testing.T) {
	n := polynomial.NewNames()
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
		got := derivative(polynomial.MustParse(tc.in, n), x)
		if !polynomial.Equal(got, polynomial.MustParse(tc.want, n)) {
			t.Errorf("d/dx %s = %s, want %s", tc.in, got.String(n), tc.want)
		}
	}
}

// randPoly draws up to five monomials of up to three terms over the first
// nv variables, with small integer coefficients and exponents 1–3.
func randPoly(r *rand.Rand, nv int) polynomial.Polynomial {
	var b polynomial.Builder
	for i, nm := 0, r.Intn(6); i < nm; i++ {
		coef := float64(r.Intn(21) - 10)
		var terms []polynomial.Term
		for j, nt := 0, r.Intn(4); j < nt; j++ {
			terms = append(terms, polynomial.TExp(polynomial.Var(r.Intn(nv)), int32(1+r.Intn(3))))
		}
		b.Add(coef, terms...)
	}
	return b.Polynomial()
}

func TestDerivativeLinearityAndProductRule(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	n := polynomial.NewNames()
	for i := 0; i < 4; i++ {
		n.Var(string(rune('a' + i)))
	}
	v := polynomial.Var(0)
	for i := 0; i < 200; i++ {
		p, q := randPoly(r, 4), randPoly(r, 4)
		// d(p+q) = dp + dq
		if !polynomial.Equal(derivative(polynomial.Add(p, q), v), polynomial.Add(derivative(p, v), derivative(q, v))) {
			t.Fatal("linearity broken")
		}
		// d(p*q) = dp*q + p*dq
		lhs := derivative(polynomial.Mul(p, q), v)
		rhs := polynomial.Add(polynomial.Mul(derivative(p, v), q), polynomial.Mul(p, derivative(q, v)))
		if !polynomial.Equal(lhs, rhs) {
			t.Fatalf("product rule broken:\np=%s\nq=%s", p.String(n), q.String(n))
		}
	}
}

func TestDerivativeNumerically(t *testing.T) {
	// Finite differences approximate the symbolic derivative.
	n := polynomial.NewNames()
	p := polynomial.MustParse("2*x^2*y + 3*x + y^2", n)
	x, _ := n.Lookup("x")
	at := func(xv, yv float64) float64 {
		return p.Eval(func(v polynomial.Var) float64 {
			if v == x {
				return xv
			}
			return yv
		})
	}
	got := derivative(p, x).Eval(func(v polynomial.Var) float64 {
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

func TestSensitivityMatchesSymbolicDerivative(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	names := polynomial.NewNames()
	vars := make([]polynomial.Var, 5)
	for i := range vars {
		vars[i] = names.Var(fmt.Sprintf("v%d", i))
	}
	for trial := 0; trial < 60; trial++ {
		set := polynomial.NewSet(names)
		for g := 0; g < 3; g++ {
			var b polynomial.Builder
			for m := 0; m < 1+r.Intn(8); m++ {
				var terms []polynomial.Term
				for k := 0; k < r.Intn(4); k++ {
					terms = append(terms, polynomial.TExp(vars[r.Intn(5)], int32(1+r.Intn(3))))
				}
				b.Add(float64(r.Intn(9)-4), terms...)
			}
			set.Add(fmt.Sprintf("g%d", g), b.Polynomial())
		}
		a := New(names)
		for _, v := range vars {
			a.SetVar(v, 0.5+r.Float64())
		}
		got := Sensitivity(set, a)
		for _, entry := range got {
			want := 0.0
			for _, p := range set.Polys {
				want += math.Abs(derivative(p, entry.Var).Eval(a.Get))
			}
			if math.Abs(entry.Total-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d var %s: fast %v != symbolic %v", trial, entry.Name, entry.Total, want)
			}
		}
	}
}

func TestSensitivitySorted(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	set.Add("g", polynomial.MustParse("1*a + 5*b + 3*c", names))
	s := Sensitivity(set, New(names))
	if s[0].Name != "b" || s[1].Name != "c" || s[2].Name != "a" {
		t.Fatalf("order: %+v", s)
	}
}

func TestSensitivityEmptySet(t *testing.T) {
	names := polynomial.NewNames()
	if s := Sensitivity(polynomial.NewSet(names), New(names)); len(s) != 0 {
		t.Fatalf("expected empty, got %+v", s)
	}
}
