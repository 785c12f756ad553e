package polynomial

import (
	"math/rand"
	"testing"
)

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
