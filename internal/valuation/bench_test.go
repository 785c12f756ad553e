package valuation

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// retailShaped builds a seeded program of the shape the sparse path is for:
// 1000 polynomials (stores) of ≈200 two-term monomials coef·sku·week over
// ≈600 variables, each store stocking 15 of 500 SKUs over a 14-week season.
// With squareWeeks every fourth monomial carries week², which puts the
// program on the generic kernel with nothing else changed.
func retailShaped(squareWeeks bool) (*polynomial.Set, []polynomial.Var) {
	r := rand.New(rand.NewSource(1))
	names := polynomial.NewNames()
	skus := make([]polynomial.Var, 500)
	for i := range skus {
		skus[i] = names.Var(fmt.Sprintf("sku%d", i))
	}
	weeks := make([]polynomial.Var, 52)
	for i := range weeks {
		weeks[i] = names.Var(fmt.Sprintf("wk%d", i))
	}
	for i := 0; i < 48; i++ {
		names.Var(fmt.Sprintf("spare%d", i))
	}
	set := polynomial.NewSet(names)
	for st := 0; st < 1000; st++ {
		first := r.Intn(len(weeks) - 14 + 1)
		var b polynomial.Builder
		for _, s := range r.Perm(len(skus))[:15] {
			for w := first; w < first+14; w++ {
				e := int32(1)
				if squareWeeks && (s+w)%4 == 0 {
					e = 2
				}
				b.Add(1+float64(r.Intn(9000))/100, polynomial.T(skus[s]), polynomial.TExp(weeks[w], e))
			}
		}
		if err := set.Add(fmt.Sprintf("store%d", st), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set, skus
}

var benchRows [][]float64

// BenchmarkProgramEval is the layer benchmark of scenario evaluation, in
// monomials of the program answered for per scenario — so the sparse rows
// report the work a scenario's answer stands for, not the smaller work done.
//
//	dense/generic, dense/exp1  every variable moved: the full pass of each kernel
//	sparse/touched=6%          two SKUs moved, as an interactive slider does
func BenchmarkProgramEval(b *testing.B) {
	run := func(b *testing.B, prog *Program, scenarios []*Assignment) {
		rows := prog.EvalBatchN(scenarios, nil, 1) // builds the index
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows = prog.EvalBatchN(scenarios, rows, 1)
		}
		benchRows = rows
		monomials := float64(b.N) * float64(len(scenarios)) * float64(prog.Size())
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/monomials, "ns/monomial")
		b.ReportMetric(monomials/b.Elapsed().Seconds(), "scenario·monomials/s")
	}
	r := rand.New(rand.NewSource(2))
	for _, kernel := range []string{"generic", "exp1"} {
		set, _ := retailShaped(kernel == "generic")
		prog := Compile(set)
		if (prog.tExps == nil) != (kernel == "exp1") {
			b.Fatalf("%s program compiled to the other kernel", kernel)
		}
		scenarios := make([]*Assignment, 16)
		for i := range scenarios {
			scenarios[i] = New(set.Names)
			for v := 0; v < prog.NumVars(); v++ {
				scenarios[i].SetVar(polynomial.Var(v), 0.5+r.Float64())
			}
		}
		b.Run("dense/"+kernel, func(b *testing.B) { run(b, prog, scenarios) })
	}

	set, skus := retailShaped(false)
	prog := Compile(set)
	scenarios := make([]*Assignment, 16)
	touched := 0
	for i := range scenarios {
		scenarios[i] = New(set.Names)
		for _, s := range r.Perm(len(skus))[:2] {
			scenarios[i].SetVar(skus[s], 0.5+r.Float64())
		}
		for _, poly := range set.Polys {
			for _, m := range poly.Mons {
				if scenarios[i].Has(m.Terms[0].Var) {
					touched++
					break
				}
			}
		}
	}
	if share := float64(touched) / float64(len(scenarios)*set.Len()); share < 0.055 || share >= 0.065 {
		b.Fatalf("the sparse scenarios touch %.3f of the polynomials, not 6%%", share)
	}
	b.Run("sparse/touched=6%", func(b *testing.B) { run(b, prog, scenarios) })
}
