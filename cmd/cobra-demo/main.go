// Command cobra-demo walks through the COBRA demonstration flow of the
// paper (Figures 3–5): it shows the analysis query result under the default
// assignment, builds/loads an abstraction tree, compresses the provenance
// under a bound, presents the meta-variable assignment screen with default
// values, applies a hypothetical scenario, and reports result changes,
// provenance sizes and the assignment speedup. With -under-the-hood it also
// prints the provenance excerpts and the cut chosen by the algorithm.
//
// Usage:
//
//	cobra-demo -dataset figure1
//	cobra-demo -dataset telephony -customers 100000 -bound 9000 \
//	    -scenario m3=0.8 -under-the-hood
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

func main() {
	var (
		dataset      = flag.String("dataset", "figure1", "figure1 | telephony")
		customers    = flag.Int("customers", 100_000, "telephony scale (customers)")
		bound        = flag.Int("bound", 0, "bound on the number of monomials (0 = 2/3 of the original size)")
		scenario     = flag.String("scenario", "m3=0.8", "comma-separated var=value assignments")
		treeFile     = flag.String("tree", "", "abstraction tree JSON (default: the Figure-2 plans tree)")
		underTheHood = flag.Bool("under-the-hood", false, "show provenance excerpts, the chosen cut, frontier, sensitivities")
		interactive  = flag.Bool("interactive", false, "drop into the interactive session instead of the scripted walk-through")
	)
	flag.Parse()
	if *interactive {
		if err := runInteractive(*dataset, *customers, *treeFile); err != nil {
			fmt.Fprintln(os.Stderr, "cobra-demo:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*dataset, *customers, *bound, *scenario, *treeFile, *underTheHood); err != nil {
		fmt.Fprintln(os.Stderr, "cobra-demo:", err)
		os.Exit(1)
	}
}

// runInteractive builds the session for the dataset and hands control to
// the REPL on stdin/stdout.
func runInteractive(dataset string, customers int, treeFile string) error {
	names := cobra.NewNames()
	set, _, err := loadDataset(dataset, customers, names)
	if err != nil {
		return err
	}
	tree, err := loadTree(treeFile, names)
	if err != nil {
		return err
	}
	return repl(newSession(names, set, tree), os.Stdin, os.Stdout)
}

// loadDataset builds the provenance set for the chosen dataset.
func loadDataset(dataset string, customers int, names *polynomial.Names) (*cobra.Set, string, error) {
	switch dataset {
	case "figure1":
		cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
		if err != nil {
			return nil, "", err
		}
		set, err := cobra.Capture(telephony.RevenueQuery, cat, names, "revenue", cobra.Options{})
		if err != nil {
			return nil, "", err
		}
		return set, "Figure-1 telephony database (7 customers, months 1 and 3)", nil
	case "telephony":
		set := telephony.DirectProvenance(telephony.Config{Customers: customers}, names)
		return set, fmt.Sprintf("synthetic telephony database, %d customers", customers), nil
	default:
		return nil, "", fmt.Errorf("unknown dataset %q", dataset)
	}
}

// loadTree reads the tree file or falls back to the Figure-2 plans tree.
func loadTree(treeFile string, names *polynomial.Names) (*cobra.Tree, error) {
	if treeFile == "" {
		return telephony.PlansTree(names), nil
	}
	data, err := os.ReadFile(treeFile)
	if err != nil {
		return nil, err
	}
	return cobra.TreeFromJSON(data, names)
}

func run(dataset string, customers, bound int, scenario, treeFile string, hood bool) error {
	names := cobra.NewNames()

	// Step 1: provenance.
	set, description, err := loadDataset(dataset, customers, names)
	if err != nil {
		return err
	}
	fmt.Printf("Dataset: %s\n", description)
	fmt.Printf("Provenance: %d polynomials, %d monomials, %d variables\n\n",
		set.Len(), set.Size(), set.NumVars())

	// Step 2: query result under the default (identity) assignment.
	base := cobra.NewAssignment(names)
	baseline := cobra.EvalSet(set, base)
	fmt.Println("Query result under the default assignment:")
	printResults(set.Keys, baseline, nil)

	// Step 3: abstraction tree.
	tree, err := loadTree(treeFile, names)
	if err != nil {
		return err
	}
	fmt.Println("\nAbstraction tree:")
	fmt.Print(tree.String())

	// Step 4: compression. One frontier run (a single DP pass) powers the
	// bound slider: the chosen bound is answered by lookup, and the same
	// curve backs the under-the-hood display — sliding to any other bound
	// would cost no further DP runs.
	if bound <= 0 {
		bound = set.Size() * 2 / 3
	}
	ds, err := cobra.OpenDataset(dataset, set, cobra.Forest{tree}, cobra.Options{})
	if err != nil {
		return err
	}
	defer ds.Close()
	frontier, err := ds.Frontier(context.Background())
	if err != nil {
		return err
	}
	point, ok := cobra.BestForBound(frontier, bound)
	if !ok {
		return &cobra.InfeasibleError{Bound: bound, MinAchievable: minAchievable(frontier)}
	}
	comp := cobra.Apply(set, cobra.Options{}, point.Cut)
	ratio := 1.0
	if set.Size() > 0 {
		ratio = float64(point.MinSize) / float64(set.Size())
	}
	fmt.Printf("\nBound %d: compressed to %d monomials (%.1f%% of original), %d meta-variables\n",
		bound, point.MinSize, 100*ratio, point.NumMeta)
	if hood {
		fmt.Printf("Chosen cut: %s\n", point.Cut)
		fmt.Println("Provenance excerpt (first polynomial, up to 8 monomials):")
		printExcerpt(set, names)
		fmt.Println("Compressed excerpt:")
		printExcerpt(comp, names)
		fmt.Println("Tradeoff frontier (meta-variables -> minimal size):")
		for _, p := range frontier {
			marker := ""
			if p.NumMeta == point.NumMeta {
				marker = "   <- chosen for this bound"
			}
			fmt.Printf("  k=%2d  size %7d  cut %s%s\n", p.NumMeta, p.MinSize, p.Cut, marker)
		}
		fmt.Println("Most sensitive variables at the default assignment:")
		for i, s := range cobra.Sensitivity(set, base) {
			if i == 5 {
				break
			}
			fmt.Printf("  %-8s %14.2f\n", s.Name, s.Total)
		}
	}

	// Step 5: scenario over meta-variables (Figure 5).
	a, err := parseScenario(scenario, names)
	if err != nil {
		return err
	}
	induced := cobra.Induced(a, point.Cut)
	fmt.Printf("\nScenario: %s\n", scenario)
	fmt.Println("Meta-variable assignment (group -> default value):")
	printMetaScreen(point.Cut, a, induced, names)

	// Step 6: results and speedup.
	full := cobra.EvalSet(set, a)
	approx := cobra.EvalSet(comp, induced)
	fmt.Println("\nScenario result: full provenance vs compressed provenance:")
	printResults(set.Keys, full, approx)
	acc, err := cobra.CompareResults(full, approx)
	if err != nil {
		return err
	}
	fmt.Printf("Max relative deviation: %.3g\n", acc.MaxRel)

	tm := cobra.MeasureSpeedup(cobra.Compile(set), cobra.Compile(comp),
		a.Dense(names.Len()), induced.Dense(names.Len()), 0)
	fmt.Printf("Assignment time: full %v, compressed %v — speedup %.0f%%\n",
		tm.Full, tm.Compressed, tm.Speedup*100)
	return nil
}

func parseScenario(s string, names *polynomial.Names) (*valuation.Assignment, error) {
	a := valuation.New(names)
	if strings.TrimSpace(s) == "" {
		return a, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad scenario entry %q (want var=value)", part)
		}
		val, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", part, err)
		}
		if err := a.Set(kv[0], val); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func printResults(keys []string, full, comp []float64) {
	max := len(keys)
	truncated := false
	if max > 10 {
		max = 10
		truncated = true
	}
	for i := 0; i < max; i++ {
		if comp == nil {
			fmt.Printf("  %-12s %14.2f\n", keys[i], full[i])
		} else {
			delta := comp[i] - full[i]
			fmt.Printf("  %-12s full %14.2f   compressed %14.2f   delta %+.4f\n",
				keys[i], full[i], comp[i], delta)
		}
	}
	if truncated {
		fmt.Printf("  ... (%d more groups)\n", len(keys)-max)
	}
}

func printMetaScreen(cut abstraction.Cut, base, induced *valuation.Assignment, names *polynomial.Names) {
	groups := cut.GroupedLeaves()
	for i, node := range cut.Nodes {
		meta := cut.Tree.Node(node)
		var leaves []string
		for _, lv := range groups[i] {
			leaves = append(leaves, fmt.Sprintf("%s=%.3g", names.Name(lv), base.Get(lv)))
		}
		sort.Strings(leaves)
		fmt.Printf("  %-10s default %.4g   abstracts [%s]\n",
			meta.Name, induced.Get(meta.Var), strings.Join(leaves, ", "))
	}
}

func printExcerpt(set *cobra.Set, names *polynomial.Names) {
	if set.Len() == 0 {
		fmt.Println("  (empty)")
		return
	}
	p := set.Polys[0]
	ex := p
	if len(p.Mons) > 8 {
		ex = polynomial.Polynomial{Mons: p.Mons[:8]}
	}
	fmt.Printf("  %s: %s", set.Keys[0], ex.String(names))
	if len(p.Mons) > 8 {
		fmt.Printf(" + ... (%d more monomials)", len(p.Mons)-8)
	}
	fmt.Println()
}
