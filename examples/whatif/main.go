// Hypothetical reasoning with multiple abstraction trees and external
// provenance: read polynomials in the interchange text format (as produced
// by any provenance engine, or cmd/provgen), open them as cobra.Datasets,
// explore the size/expressiveness tradeoff with batched multi-bound sweeps
// answered from each dataset's memoized frontier curve, and study how the
// choice of abstraction trees trades provenance size against scenario
// accuracy.
//
// Run with: go run ./examples/whatif
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	cobra "github.com/cobra-prov/cobra"
)

// externalProvenance is Example 2's provenance in the interchange format —
// what an external engine would hand to COBRA.
const externalProvenance = `# cobra provenance set v1
10001	208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
10002	77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3
`

// plansTreeJSON is the Figure-2 tree in the JSON interchange form.
const plansTreeJSON = `{
  "name": "Plans", "children": [
    {"name": "Standard", "children": [{"name": "p1"}, {"name": "p2"}]},
    {"name": "Special", "children": [
      {"name": "Y", "children": [{"name": "y1"}, {"name": "y2"}, {"name": "y3"}]},
      {"name": "F", "children": [{"name": "f1"}, {"name": "f2"}]},
      {"name": "v"}]},
    {"name": "Business", "children": [
      {"name": "SB", "children": [{"name": "b1"}, {"name": "b2"}]},
      {"name": "e"}]}]}`

func main() {
	ctx := context.Background()
	names := cobra.NewNames()
	set, _, err := cobra.ReadSet(strings.NewReader(externalProvenance), names)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded external provenance: %d monomials, %d variables\n",
		set.Size(), set.NumVars())

	plans, err := cobra.TreeFromJSON([]byte(plansTreeJSON), names)
	if err != nil {
		log.Fatal(err)
	}
	// A second dimension: the months tree (here just two observed months
	// under one quarter-like parent).
	months, err := cobra.TreeFromPaths("Months", names,
		[]string{"q1", "m1"},
		[]string{"q1", "m3"},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Slider-style exploration means asking MANY bounds, and re-running
	// the optimizer per bound re-pays its dominant cost every time. A
	// Dataset memoizes its frontier curve, so a sweep runs the DP once and
	// every later bound — in this batch or the next — is a lookup. Over a
	// forest the sweep is exact when the dimensions are disjoint — no
	// monomial touches two trees — which holds when we split the plans
	// ontology into a consumer dimension (group 10001's variables) and a
	// business dimension (group 10002's):
	consumer, err := cobra.TreeFromPaths("ConsumerDim", names,
		[]string{"Std", "p1"}, []string{"Std", "p2"},
		[]string{"Spec", "Yd", "y1"}, []string{"Spec", "Yd", "y2"}, []string{"Spec", "Yd", "y3"},
		[]string{"Spec", "Fd", "f1"}, []string{"Spec", "Fd", "f2"},
		[]string{"Spec", "v"},
	)
	if err != nil {
		log.Fatal(err)
	}
	business, err := cobra.TreeFromPaths("BusinessDim", names,
		[]string{"SBd", "b1"}, []string{"SBd", "b2"}, []string{"e"},
	)
	if err != nil {
		log.Fatal(err)
	}

	dims, err := cobra.OpenDataset("example2/dims", set, cobra.Forest{consumer, business}, cobra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer dims.Close()

	bounds := []int{14, 8, 6, 4, 2, 1}
	fmt.Println("\nbatched bound sweep (consumer × business dimensions, ONE DP run):")
	answers, err := dims.Sweep(ctx, bounds)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range answers {
		if a.Err != nil {
			fmt.Printf("  bound %2d: %v\n", a.Bound, a.Err)
			continue
		}
		fmt.Printf("  bound %2d: size %2d, %2d meta-variables: consumer %s, business %s\n",
			a.Bound, a.Result.Size, a.Result.NumMeta, a.Result.Cuts[0], a.Result.Cuts[1])
	}

	// Plans × months, by contrast, COUPLES its dimensions — every monomial
	// holds a plan and a month variable — so the joint size is not
	// additive across trees, no exact forest frontier exists (the joint
	// problem is NP-hard), and the sweep refuses rather than answer
	// wrongly. Coordinate descent (Dataset.Compress) still handles each
	// bound:
	coupled, err := cobra.OpenDataset("example2/coupled", set, cobra.Forest{plans, months}, cobra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer coupled.Close()
	if _, err := coupled.Sweep(ctx, []int{8}); err != nil {
		fmt.Printf("\nsweeping plans × months is refused (coupled dimensions):\n  %v\n", err)
	}
	res, err := coupled.Compress(ctx, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinate descent at bound 8: size %d, %d meta-variables: plans %s, months %s\n",
		res.Size, res.NumMeta, res.Cuts[0], res.Cuts[1])

	// Degrees of freedom in action. The optimizer maximizes the TOTAL
	// number of variables, so at bound 8 it prefers 11 plan variables + 1
	// merged month variable (12) over, say, 5 plans + 2 months (7) — and
	// the "March -20%" scenario becomes approximate. The paper's remedy:
	// the meta-analyst "is aware of the scenarios intended to be examined"
	// and shapes the trees accordingly — offering only the plans tree
	// protects the month dimension, and the scenario stays exact.
	plansOnly, err := cobra.OpenDataset("example2/plans", set, cobra.Forest{plans}, cobra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer plansOnly.Close()

	march := cobra.NewAssignment(names)
	if err := march.Set("m3", 0.8); err != nil {
		log.Fatal(err)
	}
	full := cobra.EvalSet(set, march)
	fmt.Println("\nMarch -20% at bound 8, by choice of abstraction trees:")
	for _, choice := range []struct {
		name string
		ds   *cobra.Dataset
	}{
		{"plans + months (months may merge)", coupled},
		{"plans only (months protected)", plansOnly},
	} {
		res, err := choice.ds.Compress(ctx, 8)
		if err != nil {
			fmt.Printf("  %-36s %v\n", choice.name, err)
			continue
		}
		comp, err := choice.ds.Apply(ctx, res.Cuts...)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := comp.EvalBatch(ctx, []*cobra.Assignment{cobra.Induced(march, res.Cuts...)})
		comp.Close()
		if err != nil {
			log.Fatal(err)
		}
		acc, err := cobra.CompareResults(full, rows[0])
		if err != nil {
			log.Fatal(err)
		}
		exact := "approximate"
		if acc.Exact(1e-9) {
			exact = "exact"
		}
		fmt.Printf("  %-36s size %d, %d meta-variables, deviation %.3g (%s)\n",
			choice.name, res.Size, res.NumMeta, acc.MaxRel, exact)
	}

	// Under the hood: the DP is optimal — compare against exhaustive
	// search over all cuts of the plans tree.
	dp, err := plansOnly.Compress(ctx, 6)
	if err != nil {
		log.Fatal(err)
	}
	ex, err := cobra.CompressExhaustive(set, plans, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDP vs exhaustive at bound 6: DP %d vars / size %d, exhaustive %d vars / size %d\n",
		dp.NumMeta, dp.Size, ex.NumMeta, ex.Size)

	// The complete tradeoff curve for the single plans tree. The curve was
	// memoized by the Compress calls' dataset, so this is free — it is the
	// same curve Sweep answers bound batches from.
	frontier, err := plansOnly.Frontier(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntradeoff frontier (meta-variables -> minimal size):")
	for _, p := range frontier {
		fmt.Printf("  k=%2d -> %2d monomials\n", p.NumMeta, p.MinSize)
	}

	// Which variables matter most? Sensitivity = Σ|∂result/∂var| at the
	// current point — a guide for what an abstraction may safely group
	// (low-sensitivity variables merge with little loss).
	fmt.Println("\nmost sensitive variables at the identity assignment:")
	for i, s := range cobra.Sensitivity(set, cobra.NewAssignment(names)) {
		if i == 5 {
			break
		}
		fmt.Printf("  %-4s %9.2f\n", s.Name, s.Total)
	}

	// Refinement in the other direction: a meta-variable can be replaced by
	// a weighted combination of its leaves using polynomial substitution.
	compressed := dp.Apply(set)
	sb, ok := names.Lookup("Special")
	if !ok {
		log.Fatal("Special not interned")
	}
	refined := cobra.Substitute(compressed.Polys[0], sb,
		cobra.MustParsePolynomial("0.5*f1 + 0.3*y1 + 0.2*v", names))
	fmt.Printf("\nrefining 'Special' in the first compressed polynomial:\n  %s\n",
		refined.String(names))
}
