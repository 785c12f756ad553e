// Business data analysis on TPC-H, as in the demo's second phase: generate
// the benchmark tables, instrument lineitem prices by ship month, capture
// provenance for Q1 and Q6, compress with the month→quarter→year tree, and
// evaluate a "1994 prices +5%" hypothetical on the compressed provenance.
//
// Run with: go run ./examples/tpch
package main

import (
	"context"
	"fmt"
	"log"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
)

func main() {
	names := cobra.NewNames()

	cat := tpch.Generate(tpch.Config{SF: 0.005})
	fmt.Printf("generated TPC-H at SF 0.005: %d orders, %d lineitems\n",
		cat["orders"].Len(), cat["lineitem"].Len())

	inst, err := tpch.InstrumentByShipMonth(cat, names)
	if err != nil {
		log.Fatal(err)
	}
	tree := tpch.DateTree(names)
	ctx := context.Background()

	for _, q := range []tpch.Query{tpch.Queries[0], tpch.Queries[3]} { // Q1, Q6
		set, err := cobra.Capture(q.Prov, inst, names, q.ValueCol, cobra.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d groups, %d monomials, %d variables\n",
			q.Name, set.Len(), set.Size(), set.NumVars())
		ds, err := cobra.OpenDataset(q.Name, set, cobra.Forest{tree}, cobra.Options{})
		if err != nil {
			log.Fatal(err)
		}

		// Compress to half, then to a fifth.
		for _, frac := range []float64{0.5, 0.2} {
			res, err := ds.Compress(ctx, int(float64(set.Size())*frac))
			if err != nil {
				fmt.Printf("  bound %.0f%%: %v\n", frac*100, err)
				continue
			}
			fmt.Printf("  bound %.0f%%: %d monomials, %d meta-variables\n",
				frac*100, res.Size, res.NumMeta)
		}

		// Hypothetical: every month of 1994 +5%. This groups exactly under
		// the y1994 node, so a cut at year granularity evaluates it exactly.
		a := cobra.NewAssignment(names)
		for m := 1; m <= 12; m++ {
			name := fmt.Sprintf("mo_1994_%02d", m)
			if _, ok := names.Lookup(name); ok {
				if err := a.Set(name, 1.05); err != nil {
					log.Fatal(err)
				}
			}
		}
		res, err := ds.Compress(ctx, set.Size()/4)
		ds.Close()
		if err != nil {
			log.Fatal(err)
		}
		comp := res.Apply(set)
		full := cobra.EvalSet(set, a)
		approx := cobra.EvalSet(comp, cobra.Induced(a, res.Cuts...))
		acc, err := cobra.CompareResults(full, approx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  scenario '1994 +5%%' at bound 25%%: max relative deviation %.3g\n", acc.MaxRel)
		for i, key := range set.Keys {
			if i >= 3 {
				fmt.Printf("  ... (%d more groups)\n", set.Len()-3)
				break
			}
			fmt.Printf("  %-8s full %15.2f  compressed %15.2f\n", key, full[i], approx[i])
		}
	}
}
