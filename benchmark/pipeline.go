package main

import (
	"fmt"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// answer is what the compress → apply → first-answer tail of a cold path
// produced, kept for the checks that run off the clock.
type answer struct {
	bound    int
	res      *core.Result
	compSize int                   // monomials in the applied (compressed) provenance
	scenario *valuation.Assignment // the induced assignment the row answers
	row      []float64
}

// openDataset opens src as a Dataset under a span of the facade's own
// layer: OpenDataset counts the source's monomials and variables, which on a
// large in-memory set is work worth seeing.
func openDataset(tr *tracer, root int, name string, src polynomial.SetSource, trees abstraction.Forest, opts cobra.Options) (*cobra.Dataset, error) {
	sp := tr.begin(root, "cobra", "OpenDataset")
	ds, err := cobra.OpenDataset(name, src, trees, opts)
	tr.end(sp, src.Size())
	return ds, err
}

// cutCounts reports a warm compression's exact outcome.
func cutCounts(into map[string]float64, res *core.Result) {
	into["core.cut_size"] = float64(res.Size)
	into["core.cut_meta_vars"] = float64(res.NumMeta)
	into["core.compressed_size_ratio"] = ratio(float64(res.Size), float64(res.OriginalSize))
}

// facadeTail is the tail through the public API: Dataset.Compress, Apply
// and the first EvalBatch (which compiles). It closes the compressed
// dataset; the caller owns ds.
func facadeTail(x *runner, ds *cobra.Dataset, bound int, leaf *valuation.Assignment) (*answer, error) {
	sw := startWatch()
	res, err := ds.Compress(ctx, bound)
	if err != nil {
		return nil, err
	}
	comp, err := ds.Apply(ctx, res.Cuts...)
	if err != nil {
		return nil, err
	}
	defer comp.Close()
	x.part("compress", sw.stop())
	a := valuation.Induced(leaf, res.Cuts...)
	rows, err := comp.EvalBatch(ctx, []*valuation.Assignment{a})
	if err != nil {
		return nil, err
	}
	return &answer{bound: bound, res: res, compSize: comp.Size(), scenario: a, row: rows[0]}, nil
}

// layerTail is the same tail as the layer calls the facade makes for an
// in-memory set, one span each.
func layerTail(tr *tracer, root int, set *polynomial.Set, trees abstraction.Forest, bound int, leaf *valuation.Assignment) (*answer, error) {
	sp := tr.begin(root, "core", "CompressSource")
	res, err := core.CompressSource(set, trees, bound, 1)
	tr.end(sp, set.Size())
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "abstraction", "ApplySource")
	comp := polynomial.NewSet(set.Names)
	err = abstraction.ApplySource(set, comp, 1, res.Cuts...)
	tr.end(sp, set.Size())
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "valuation", "Induced")
	a := valuation.Induced(leaf, res.Cuts...)
	tr.end(sp, a.Len())
	sp = tr.begin(root, "valuation", "Compile")
	prog := valuation.Compile(comp)
	tr.end(sp, prog.Size())
	sp = tr.begin(root, "valuation", "Program.EvalBatchN")
	rows := prog.EvalBatchN([]*valuation.Assignment{a}, nil, 1)
	tr.end(sp, prog.Size())
	return &answer{bound: bound, res: res, compSize: comp.Size(), scenario: a, row: rows[0]}, nil
}

// sizeCheck remembers, per bound, the size core.SizeOfCuts assigns to the
// cut the optimizer returned there, so the (expensive) recount runs once
// per bound and not once per operation.
type sizeCheck struct {
	set  *polynomial.Set
	want map[int]int
}

func newSizeCheck(set *polynomial.Set) *sizeCheck {
	return &sizeCheck{set: set, want: make(map[int]int)}
}

// check verifies an answer: the compressed size respects the bound and is
// the size of the chosen cuts, and the compressed answer equals the full
// provenance's answer to the leaf-level scenario it stands for.
func (a *answer) check(sizes *sizeCheck, oracle func(*valuation.Assignment) ([]float64, error)) error {
	if a.res.Size > a.bound {
		return fmt.Errorf("compressed size %d exceeds bound %d", a.res.Size, a.bound)
	}
	if a.compSize != a.res.Size {
		return fmt.Errorf("applied provenance has %d monomials, result says %d", a.compSize, a.res.Size)
	}
	size, ok := sizes.want[a.bound]
	if !ok {
		size = core.SizeOfCuts(sizes.set, a.res.Cuts...)
		sizes.want[a.bound] = size
	}
	if a.res.Size != size {
		return fmt.Errorf("result size %d, SizeOfCuts %d", a.res.Size, size)
	}
	want, err := oracle(expand(a.scenario, a.res.Cuts))
	if err != nil {
		return err
	}
	return sameRows(a.row, want, answerTolerance)
}

// interiorCut reports an error unless the cut is neither the root cut nor
// the leaf cut of its tree.
func interiorCut(c abstraction.Cut) error {
	if len(c.Nodes) == 1 && c.Nodes[0] == c.Tree.Root() {
		return fmt.Errorf("cut is the root cut")
	}
	if c.IsIdentity() {
		return fmt.Errorf("cut is the leaf cut")
	}
	return nil
}

// rootCutSize is the smallest size any cut of the tree reaches.
func rootCutSize(set *polynomial.Set, tree *abstraction.Tree) int {
	return core.SizeOfCuts(set, tree.RootCut())
}
