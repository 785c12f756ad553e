// Command provgen generates provenance polynomials and serializes them —
// the "provenance engine" box of the paper's Figure-4 architecture. The
// output feeds cobra-compress (or any consumer of the documented formats).
//
// Usage:
//
//	provgen -dataset figure1 -out prov.txt
//	provgen -dataset telephony -customers 1000000 -format binary -out prov.bin
//	provgen -dataset tpch -sf 0.01 -query Q6 -format json -out q6.json
//	provgen -dataset tpch -query Q1 -tree-out date-tree.json
package main

import (
	"flag"
	"fmt"
	"os"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/engine"
)

func main() {
	var (
		dataset   = flag.String("dataset", "figure1", "figure1 | telephony | tpch")
		customers = flag.Int("customers", 100_000, "telephony scale")
		sf        = flag.Float64("sf", 0.01, "TPC-H scale factor")
		queryName = flag.String("query", "Q1", "TPC-H query: Q1 | Q3 | Q5 | Q6 | Q10")
		format    = flag.String("format", "text", "text | json | binary")
		out       = flag.String("out", "-", "output file (- = stdout)")
		treeOut   = flag.String("tree-out", "", "also write the matching abstraction tree JSON here")
	)
	flag.Parse()
	if err := run(*dataset, *customers, *sf, *queryName, *format, *out, *treeOut); err != nil {
		fmt.Fprintln(os.Stderr, "provgen:", err)
		os.Exit(1)
	}
}

func run(dataset string, customers int, sf float64, queryName, format, out, treeOut string) error {
	if err := cobra.Format(format).Validate(); err != nil { // before any work, and before -out is truncated
		return fmt.Errorf("-format: %w", err)
	}
	names := cobra.NewNames()
	var (
		set  *cobra.Set
		tree *cobra.Tree
		err  error
	)
	switch dataset {
	case "figure1":
		var cat engine.Catalog
		cat, err = telephony.InstrumentPrices(telephony.Figure1DB(), names)
		if err != nil {
			return err
		}
		set, err = cobra.Capture(telephony.RevenueQuery, cat, names, "revenue", cobra.Options{})
		tree = telephony.PlansTree(names)
	case "telephony":
		set = telephony.DirectProvenance(telephony.Config{Customers: customers}, names)
		tree = telephony.PlansTree(names)
	case "tpch":
		var q *tpch.Query
		for i := range tpch.Queries {
			if tpch.Queries[i].Name == queryName {
				q = &tpch.Queries[i]
				break
			}
		}
		if q == nil {
			return fmt.Errorf("unknown TPC-H query %q", queryName)
		}
		cat := tpch.Generate(tpch.Config{SF: sf})
		var inst engine.Catalog
		if q.Name == "Q5" {
			inst, err = tpch.InstrumentBySupplierNation(cat, names)
			tree = tpch.NationRegionTree(names)
		} else {
			inst, err = tpch.InstrumentByShipMonth(cat, names)
			tree = tpch.DateTree(names)
		}
		if err != nil {
			return err
		}
		set, err = cobra.Capture(q.Prov, inst, names, q.ValueCol, cobra.Options{})
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	if err != nil {
		return err
	}

	if err := writeOut(out, set, cobra.Format(format)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "provgen: wrote %d polynomials, %d monomials, %d variables\n",
		set.Len(), set.Size(), set.NumVars())

	if treeOut != "" && tree != nil {
		data, err := tree.MarshalJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(treeOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "provgen: wrote abstraction tree (%d nodes) to %s\n", tree.Len(), treeOut)
	}
	return nil
}

// writeOut writes set to the file out ("-" = stdout) in the given format. It
// returns the file's Close error too: a short write may surface only there.
func writeOut(out string, set cobra.SetSource, format cobra.Format) (err error) {
	if out == "-" {
		return cobra.WriteSet(os.Stdout, set, format)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return cobra.WriteSet(f, set, format)
}
