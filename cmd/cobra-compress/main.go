// Command cobra-compress compresses serialized provenance polynomials under
// an abstraction tree and a bound — the back-end box of the paper's Figure-4
// architecture, consumable from any provenance engine via the documented
// formats.
//
// Usage:
//
//	cobra-compress -in prov.txt -tree tree.json -bound 94600 -out compressed.txt
//	cobra-compress -in prov.bin -tree tree.json -bound 40000 -algo greedy -out-format json
//
// The input format (text, JSON or any binary version) is detected from the
// first bytes of the input.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	cobra "github.com/cobra-prov/cobra"
)

func main() {
	var (
		in        = flag.String("in", "-", "input provenance set (- = stdin)")
		treeFile  = flag.String("tree", "", "abstraction tree JSON (required)")
		bound     = flag.Int("bound", 0, "bound on the number of monomials (required)")
		algo      = flag.String("algo", "dp", "dp (optimal) | greedy")
		out       = flag.String("out", "-", "output file for the compressed set (- = stdout)")
		outFormat = flag.String("out-format", "", "text | json | binary (default: same as input; binary input of any version is written as v3)")
	)
	flag.Parse()
	if err := run(*in, *treeFile, *bound, *algo, *out, cobra.Format(*outFormat)); err != nil {
		fmt.Fprintln(os.Stderr, "cobra-compress:", err)
		os.Exit(1)
	}
}

func run(in, treeFile string, bound int, algo, out string, outFormat cobra.Format) error {
	if treeFile == "" {
		return fmt.Errorf("-tree is required")
	}
	if bound <= 0 {
		return fmt.Errorf("-bound must be positive")
	}
	if outFormat != "" { // before any work, and before -out is truncated
		if err := outFormat.Validate(); err != nil {
			return fmt.Errorf("-out-format: %w", err)
		}
	}

	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	names := cobra.NewNames()
	set, inFormat, err := cobra.ReadSet(r, names)
	if err != nil {
		return err
	}
	if outFormat == "" {
		outFormat = inFormat
	}

	treeData, err := os.ReadFile(treeFile)
	if err != nil {
		return err
	}
	tree, err := cobra.TreeFromJSON(treeData, names)
	if err != nil {
		return err
	}

	var res *cobra.Result
	switch algo {
	case "dp":
		var ds *cobra.Dataset
		if ds, err = cobra.OpenDataset("input", set, cobra.Forest{tree}, cobra.Options{}); err == nil {
			res, err = ds.Compress(context.Background(), bound)
			ds.Close()
		}
	case "greedy":
		res, err = cobra.CompressGreedy(set, tree, bound)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		return err
	}
	comp := res.Apply(set)

	fmt.Fprintf(os.Stderr, "cobra-compress: %d -> %d monomials (%.1f%%), cut %s (%d meta-variables)\n",
		res.OriginalSize, res.Size, 100*res.CompressionRatio(), res.Cuts[0], res.NumMeta)

	return writeOut(out, comp, outFormat)
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
