package polynomial

import (
	"fmt"
	"math/rand"
	"testing"
)

// bigMapInstance builds a polynomial of 12 288 monomials with colliding
// term vectors, so the merge path (including the float summation order of
// merged coefficients) is exercised.
func bigMapInstance(r *rand.Rand, names *Names) Polynomial {
	vars := make([]Var, 40)
	for i := range vars {
		vars[i] = names.Var(fmt.Sprintf("v%d", i))
	}
	var b Builder
	for m := 0; m < 12288; m++ {
		b.Add(r.Float64()*2-1,
			TExp(vars[r.Intn(len(vars))], int32(1+r.Intn(2))),
			T(vars[r.Intn(len(vars))]))
	}
	return b.Polynomial()
}

func TestSetMapVarsNBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	names := NewNames()
	f := func(v Var) Var { return v &^ 1 }

	// Many small polynomials, spread over the workers.
	many := NewSet(names)
	for g := 0; g < 64; g++ {
		var b Builder
		for m := 0; m < 50; m++ {
			b.Add(r.Float64(), T(names.Var(fmt.Sprintf("v%d", r.Intn(30)))))
		}
		many.Add(fmt.Sprintf("g%d", g), b.Polynomial())
	}
	// One large polynomial: fewer polynomials than workers.
	one := NewSet(names)
	one.Add("big", bigMapInstance(r, names))

	for _, s := range []*Set{many, one} {
		want := mapSet(s, f, 1)
		for _, workers := range []int{2, 8} {
			got := mapSet(s, f, workers)
			if got.Len() != want.Len() {
				t.Fatalf("workers=%d: %d polys, want %d", workers, got.Len(), want.Len())
			}
			for i := range want.Polys {
				if got.Keys[i] != want.Keys[i] || !Equal(got.Polys[i], want.Polys[i]) {
					t.Fatalf("workers=%d: polynomial %d differs from sequential", workers, i)
				}
			}
		}
	}
}
