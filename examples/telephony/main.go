// The paper's running example end-to-end: generate the telephony database,
// instrument plan prices with symbolic variables, capture the revenue
// query's provenance through the SQL engine, compress it at several bounds,
// and examine the paper's two hypothetical scenarios — including the
// commutation check that guarantees correctness.
//
// Run with: go run ./examples/telephony
package main

import (
	"context"
	"fmt"
	"log"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
)

func main() {
	names := cobra.NewNames()

	// Generate a 5,000-customer database and instrument Plans.Price so
	// that each price cell carries its plan and month variables
	// (0.4 becomes 0.4·p1·m1, as in Example 2).
	cat := telephony.Generate(telephony.Config{Customers: 5_000, Zips: 8, Months: 12})
	inst, err := telephony.InstrumentPrices(cat, names)
	if err != nil {
		log.Fatal(err)
	}

	// Capture the provenance of the revenue query.
	set, err := cobra.Capture(telephony.RevenueQuery, inst, names, "revenue", cobra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d polynomials (one per zip), %d monomials, %d variables\n",
		set.Len(), set.Size(), set.NumVars())

	// Open it as a Dataset over the Figure-2 plans tree and compress at a
	// sweep of bounds.
	tree := telephony.PlansTree(names)
	ds, err := cobra.OpenDataset("telephony", set, cobra.Forest{tree}, cobra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	fmt.Println("\nbound sweep (size / meta-variables):")
	for _, frac := range []float64{0.8, 0.6, 0.4, 0.3} {
		bound := int(float64(set.Size()) * frac)
		res, err := ds.Compress(ctx, bound)
		if err != nil {
			fmt.Printf("  bound %5d: %v\n", bound, err)
			continue
		}
		fmt.Printf("  bound %5d: %5d monomials, %2d meta-variables, cut %s\n",
			bound, res.Size, res.NumMeta, res.Cuts[0])
	}

	// The paper's scenarios on a compressed provenance.
	res, err := ds.Compress(ctx, set.Size()/3)
	if err != nil {
		log.Fatal(err)
	}
	comp := res.Apply(set)
	fmt.Printf("\nusing cut %s (%d -> %d monomials):\n", res.Cuts[0], set.Size(), res.Size)

	scenarios := map[string]*cobra.Assignment{
		"March -20% (m3=0.8)":         telephony.ScenarioMarchMinus20(names),
		"Business +10% (b1,b2,e=1.1)": telephony.ScenarioBusinessPlus10(names),
	}
	for name, a := range scenarios {
		full := cobra.EvalSet(set, a)
		approx := cobra.EvalSet(comp, cobra.Induced(a, res.Cuts...))
		acc, err := cobra.CompareResults(full, approx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-30s max relative deviation %.3g\n", name, acc.MaxRel)
	}

	// Correctness guarantee: evaluating the provenance under a scenario
	// equals re-running the query on correspondingly modified data.
	rep, err := cobra.CheckCommutation(telephony.RevenueQuery, inst, names, "revenue",
		telephony.ScenarioMarchMinus20(names))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncommutation check (valuation vs re-execution): max rel err %.2g over %d groups\n",
		rep.Accuracy.MaxRel, rep.Groups)

	// And the reason to bother: assignment speedup.
	a := telephony.ScenarioMarchMinus20(names)
	tm := cobra.MeasureSpeedup(cobra.Compile(set), cobra.Compile(comp),
		a.Dense(names.Len()), cobra.Induced(a, res.Cuts...).Dense(names.Len()), 0)
	fmt.Printf("assignment time: full %v vs compressed %v — speedup %.0f%%\n",
		tm.Full, tm.Compressed, tm.Speedup*100)
}
