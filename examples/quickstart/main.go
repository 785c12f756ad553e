// Quickstart: open provenance polynomials as a cobra.Dataset, compress
// them with an abstraction tree under a monomial bound, and run
// hypothetical scenarios on the compressed provenance — all through the
// Dataset handle, whose solves are memoized and safe for concurrent use.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	cobra "github.com/cobra-prov/cobra"
)

func main() {
	ctx := context.Background()

	// A variable namespace shared by polynomials, trees and assignments.
	names := cobra.NewNames()

	// Provenance polynomials — normally captured from a query (see the
	// telephony example); here parsed from the paper's Example 2.
	set := cobra.NewSet(names)
	if err := set.Add("zip 10001", cobra.MustParsePolynomial(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + "+
			"75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names)); err != nil {
		log.Fatal(err)
	}
	if err := set.Add("zip 10002", cobra.MustParsePolynomial(
		"77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + "+
			"69.7*b2*m1 + 100.65*b2*m3", names)); err != nil {
		log.Fatal(err)
	}

	// The Figure-2 abstraction tree over the plan variables.
	tree, err := cobra.TreeFromPaths("Plans", names,
		[]string{"Standard", "p1"},
		[]string{"Standard", "p2"},
		[]string{"Special", "Y", "y1"},
		[]string{"Special", "Y", "y2"},
		[]string{"Special", "Y", "y3"},
		[]string{"Special", "F", "f1"},
		[]string{"Special", "F", "f2"},
		[]string{"Special", "v"},
		[]string{"Business", "SB", "b1"},
		[]string{"Business", "SB", "b2"},
		[]string{"Business", "e"},
	)
	if err != nil {
		log.Fatal(err)
	}

	// The Dataset handle: immutable provenance + its abstraction forest.
	// Compress/Frontier/Sweep results are memoized on the handle, so the
	// optimizer runs once however many times (or goroutines) ask.
	ds, err := cobra.OpenDataset("example2", set, cobra.Forest{tree}, cobra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	fmt.Printf("dataset %q: %d monomials over %d variables\n",
		ds.Name(), ds.Size(), len(ds.UsedVars()))

	// Compress: at most 6 monomials, keeping as many variables as possible.
	res, err := ds.Compress(ctx, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed to %d monomials with cut %s (%d meta-variables)\n",
		res.Size, res.Cuts[0], res.NumMeta)

	// Apply the cut: a derived Dataset holding the compressed provenance,
	// the handle scenario traffic evaluates against from here on.
	small, err := ds.Apply(ctx, res.Cuts...)
	if err != nil {
		log.Fatal(err)
	}
	defer small.Close()

	// Hypothetical scenario: March prices decrease by 20%.
	a := cobra.NewAssignment(names)
	if err := a.Set("m3", 0.8); err != nil {
		log.Fatal(err)
	}
	full, err := ds.EvalBatch(ctx, []*cobra.Assignment{a})
	if err != nil {
		log.Fatal(err)
	}
	approx, err := small.EvalBatch(ctx, []*cobra.Assignment{cobra.Induced(a, res.Cuts...)})
	if err != nil {
		log.Fatal(err)
	}
	for i, key := range set.Keys {
		fmt.Printf("%s: full %.2f, compressed %.2f\n", key, full[0][i], approx[0][i])
	}
	acc, err := cobra.CompareResults(full[0], approx[0])
	if err != nil {
		log.Fatal(err)
	}
	exact := "approximate"
	if acc.Exact(1e-9) {
		exact = "exact"
	}
	fmt.Printf("max relative deviation: %.2g (%s — the scenario is tree-consistent)\n", acc.MaxRel, exact)

	// Slider-style exploration: a batch of bounds answered from the
	// dataset's memoized frontier curve — one DP run, many bounds.
	answers, err := ds.Sweep(ctx, []int{14, 6, 2, 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bound sweep from the memoized frontier:")
	for _, ans := range answers {
		if ans.Err != nil {
			fmt.Printf("  bound %2d: %v\n", ans.Bound, ans.Err)
			continue
		}
		fmt.Printf("  bound %2d: size %2d, %d meta-variables, cut %s\n",
			ans.Bound, ans.Result.Size, ans.Result.NumMeta, ans.Result.Cuts[0])
	}
}
