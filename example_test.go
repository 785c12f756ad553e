package cobra_test

import (
	"context"
	"fmt"
	"log"

	cobra "github.com/cobra-prov/cobra"
)

// ExampleOpenDataset is the quick start: build a provenance set and an
// abstraction tree, open them as a Dataset, compress under a bound, derive
// the compressed dataset, and answer a what-if on both.
func ExampleOpenDataset() {
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	set.Add("zip 10001", cobra.MustParsePolynomial(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*p2*m1 + 114.45*p2*m3 + 98.2*f1*m1 + 101.5*f1*m3", names))

	tree := cobra.NewTree("Plans", names)
	std := tree.MustAddChild(tree.Root(), "Standard")
	tree.MustAddChild(std, "p1")
	tree.MustAddChild(std, "p2")
	special := tree.MustAddChild(tree.Root(), "Special")
	tree.MustAddChild(special, "f1")
	tree.MustAddChild(special, "f2")

	ds, err := cobra.OpenDataset("zips", set, cobra.Forest{tree}, cobra.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()

	ctx := context.Background()
	res, err := ds.Compress(ctx, 4) // the optimal cut under a bound of 4 monomials
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cut %s: %d -> %d monomials, %d meta-variable(s)\n", res.Cuts[0], res.OriginalSize, res.Size, res.NumMeta)

	small, err := ds.Apply(ctx, res.Cuts...) // the derived, compressed dataset
	if err != nil {
		log.Fatal(err)
	}
	defer small.Close()

	a := cobra.NewAssignment(names)
	if err := a.Set("m3", 0.8); err != nil { // "March prices decreased by 20%"
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
	fmt.Printf("revenue: full %.2f, compressed %.2f\n", full[0][0], approx[0][0])
	// Output:
	// cut {Standard, f1, f2}: 6 -> 4 monomials, 3 meta-variable(s)
	// revenue: full 799.16, compressed 799.16
}
