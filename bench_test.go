package cobra_test

// Micro-benchmarks for the ablations no layer benchmark covers (greedy
// compression, naive evaluation, polynomial arithmetic, sensitivity). Each
// pipeline layer has its own throughput benchmark beside the package it
// measures, and the gated end-to-end record is benchmark/.

import (
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// benchSet builds the telephony provenance at a fixed moderate scale.
func benchSet(b *testing.B) (*cobra.Set, *cobra.Tree) {
	b.Helper()
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 100_000}, names)
	return set, telephony.PlansTree(names)
}

func BenchmarkCompressGreedy(b *testing.B) {
	set, tree := benchSet(b)
	bound := set.Size() * 2 / 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Greedy(set, tree, bound); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalNaive(b *testing.B) {
	set, _ := benchSet(b)
	a := valuation.New(set.Names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		valuation.EvalSet(set, a)
	}
}

func BenchmarkPolynomialAdd(b *testing.B) {
	set, _ := benchSet(b)
	p, q := set.Polys[0], set.Polys[len(set.Polys)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = polynomial.Add(p, q)
	}
}

func BenchmarkPolynomialMul(b *testing.B) {
	names := cobra.NewNames()
	p := cobra.MustParsePolynomial("1 + 2*a + 3*b + 4*a*b + 5*c^2 + 6*a*c + 7*b*c + 8*d", names)
	q := cobra.MustParsePolynomial("2 + 3*d + 5*e + 7*a*e + 11*b*d + 13*c*d*e", names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = polynomial.Mul(p, q)
	}
}

func BenchmarkSensitivity(b *testing.B) {
	set, _ := benchSet(b)
	a := valuation.New(set.Names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = valuation.Sensitivity(set, a)
	}
}
