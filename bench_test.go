package cobra_test

// Micro-benchmarks for the ablations no layer benchmark covers (greedy
// compression, naive evaluation, polynomial arithmetic, sensitivity) and
// for the facade's own cold path over a file (BenchmarkDatasetOpenIndexed). Each
// pipeline layer has its own throughput benchmark beside the package it
// measures, and the gated end-to-end record is benchmark/.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polyio"
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

// BenchmarkDatasetOpenIndexed is the cold path from a v3 file to a first
// what-if answer through the facade: open the file, OpenDataset (which
// decodes it once), Compress at a third of the size, Apply, and the first
// EvalBatch, under a residency budget of an eighth of the size — the
// paper-scale telephony set (1M customers, 139 260 monomials), as in the
// benchmark program's store_outofcore workload. Read B/op beside ns/op.
func BenchmarkDatasetOpenIndexed(b *testing.B) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 1_000_000}, names)
	trees := cobra.Forest{telephony.PlansTree(names)}
	dir := b.TempDir()
	opts := cobra.Options{MaxResidentMonomials: set.Size() / 8, SpillDir: dir}
	path := filepath.Join(dir, "set.v3")
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: opts.MaxResidentMonomials, SpillDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	err = polyio.WriteSetStreamV3(f, ss, polyio.V3Options{Compress: true})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if cerr := ss.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
	leaf := cobra.NewAssignment(names)
	if err := leaf.Set("m3", 0.8); err != nil {
		b.Fatal(err)
	}
	bound := set.Size() / 3
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := polyio.OpenIndexedFile(path, names)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := cobra.OpenDataset("cold", ix, trees, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ds.Compress(ctx, bound)
		if err != nil {
			b.Fatal(err)
		}
		comp, err := ds.Apply(ctx, res.Cuts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := comp.EvalBatch(ctx, []*cobra.Assignment{cobra.Induced(leaf, res.Cuts...)}); err != nil {
			b.Fatal(err)
		}
		if err := comp.Close(); err != nil {
			b.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
