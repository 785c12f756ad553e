package main

import (
	"fmt"
	"math/rand"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// sliderPool is how many sparse scenarios a workload cycles through unless
// it says otherwise; one pass over them is one value of the slider
// statistics.
const sliderPool = 32

// batchWorkers is the worker count of the gated batch phases. Two workers
// are what a 2-CPU analyst box would use, but the sandbox withholds its
// second CPU for seconds at a time: a 64-scenario batch ran in 6.4 ms or in
// 11.5-13.5 ms, window after window, and the spread over ten runs was
// 21-24 % at 144 samples a run. The gated phases therefore use one worker;
// the two-worker speed-up is the per-layer valuation.batch_w2_ratio.
const batchWorkers = 1

// evalFn answers scenarios against one target (the compressed or the full
// provenance of a workload). With a tracer it takes the decomposed route
// and opens its spans under parent; without, the program's public one.
type evalFn func(tr *tracer, parent, workers int, as []*valuation.Assignment) ([][]float64, error)

// whatif is the hypothetical-reasoning half every workload shares: seeded
// scenario pools, the answers they must produce, and the slider and batch
// phases that time them.
type whatif struct {
	cuts       []abstraction.Cut // what the compressed target was compressed under
	comp, full evalFn
	// oracle answers one leaf-level scenario on the full provenance by the
	// direct route; every check compares against it.
	oracle func(a *valuation.Assignment) ([]float64, error)

	sliders    []*valuation.Assignment   // sparse, uniform on the cut's groups
	batches    [][]*valuation.Assignment // dense, leaf level
	batchesCut [][]*valuation.Assignment // the same batches, induced onto the cut
	sliderWant [][]float64
	batchWant  [][][]float64
}

// newWhatif draws the scenario pools: sliders change one to three of the
// sparse groups, batch rows every dense group. Groups must be uniform for
// cuts: the cut's own groups, or coarser ones, and context variables.
func newWhatif(r *rand.Rand, sc scale, nSliders int, names *polynomial.Names, cuts []abstraction.Cut, sparse, dense []group) *whatif {
	nBatches := 4
	if sc == smoke {
		nSliders, nBatches = max(nSliders/4, 2), 1
	}
	q := &whatif{cuts: cuts}
	for i := 0; i < nSliders; i++ {
		q.sliders = append(q.sliders, sparseScenario(r, names, sparse))
	}
	for i := 0; i < nBatches; i++ {
		var leaf, cut []*valuation.Assignment
		for j := 0; j < batchSize; j++ {
			a := denseScenario(r, names, dense)
			leaf = append(leaf, a)
			cut = append(cut, valuation.Induced(a, cuts...))
		}
		q.batches = append(q.batches, leaf)
		q.batchesCut = append(q.batchesCut, cut)
	}
	return q
}

// prepare computes the full-provenance answer of every pooled scenario,
// and the share of the polynomials in srcs a slider scenario touches.
func (q *whatif) prepare(w *workload, srcs ...polynomial.SetSource) error {
	share, err := q.touchedShare(srcs...)
	if err != nil {
		return err
	}
	w.counts["valuation.touched_poly_share"] = share
	for _, a := range q.sliders {
		row, err := q.oracle(a)
		if err != nil {
			return err
		}
		q.sliderWant = append(q.sliderWant, row)
	}
	for _, batch := range q.batches {
		var want [][]float64
		for _, a := range batch {
			row, err := q.oracle(a)
			if err != nil {
				return err
			}
			want = append(want, row)
		}
		q.batchWant = append(q.batchWant, want)
	}
	return nil
}

func checkRows(got, want [][]float64, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if err := sameRows(got[i], want[i], rel); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// slider answers the i-th pooled sparse scenario. On the compressed
// target the analyst's leaf-level change is first induced onto the cut's
// meta-variables, which is part of what they wait for.
func (q *whatif) slider(x *runner, name string, compressed bool, i int) {
	k := i % len(q.sliders)
	x.timed(name, func(root int) (func() error, error) {
		a, target, rel := q.sliders[k], q.full, 0.0
		if compressed {
			sp := x.tr.begin(root, "valuation", "Induced")
			a = valuation.Induced(a, q.cuts...)
			x.tr.end(sp, a.Len())
			target, rel = q.comp, answerTolerance
		}
		rows, err := target(x.tr, root, 1, []*valuation.Assignment{a})
		if err != nil {
			return nil, err
		}
		return func() error { return checkRows(rows, q.sliderWant[k:k+1], rel) }, nil
	})
}

// batch answers one pooled batch of dense scenarios.
func (q *whatif) batch(x *runner, name string, compressed bool, i int) {
	k := i % len(q.batches)
	x.timed(name, func(root int) (func() error, error) {
		as, target, rel := q.batches[k], q.full, 0.0
		if compressed {
			as, target, rel = q.batchesCut[k], q.comp, answerTolerance
		}
		rows, err := target(x.tr, root, batchWorkers, as)
		if err != nil {
			return nil, err
		}
		return func() error { return checkRows(rows, q.batchWant[k], rel) }, nil
	})
}

// mix is how much of each shared phase one round holds: passes over the
// slider pool, and batch calls.
type mix struct {
	sliderPasses, sliderFullPasses, batch, batchFull int
}

// phases returns the slider and batch phases and notes in w that slider
// statistics go by passes over the pool.
func (q *whatif) phases(w *workload, n mix) []phase {
	pool := len(q.sliders)
	w.passes["slider"], w.passes["slider_full"] = pool, pool
	return []phase{
		{name: "slider", perRound: n.sliderPasses * pool, run: func(x *runner, i int) { q.slider(x, "slider", true, i) }},
		{name: "slider_full", perRound: n.sliderFullPasses * pool, run: func(x *runner, i int) { q.slider(x, "slider_full", false, i) }},
		{name: "batch", perRound: n.batch, run: func(x *runner, i int) { q.batch(x, "batch", true, i) }},
		{name: "batch_full", perRound: n.batchFull, run: func(x *runner, i int) { q.batch(x, "batch_full", false, i) }},
	}
}

// touchedShare is the share of polynomials that mention a variable the
// average pooled slider scenario changes: 1 when every variable occurs in
// every polynomial, a few percent when stores stock a few SKUs each.
func (q *whatif) touchedShare(srcs ...polynomial.SetSource) (float64, error) {
	polys, touched := 0, 0
	for _, src := range srcs {
		err := src.ForEachShard(func(_, _ int, s *polynomial.Set) error {
			for _, p := range s.Polys {
				for _, a := range q.sliders {
					polys++
					if mentions(p, a) {
						touched++
					}
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return ratio(float64(touched), float64(polys)), nil
}

func mentions(p polynomial.Polynomial, a *valuation.Assignment) bool {
	for _, m := range p.Mons {
		for _, t := range m.Terms {
			if a.Has(t.Var) {
				return true
			}
		}
	}
	return false
}

// datasetEval is the evalFn of an in-memory target: Dataset.EvalBatch, or,
// traced, the compiled program the Dataset would have memoized.
func datasetEval(ds *cobra.Dataset, prog *valuation.Program) evalFn {
	return func(tr *tracer, parent, workers int, as []*valuation.Assignment) ([][]float64, error) {
		if tr == nil {
			return ds.WithWorkers(workers).EvalBatch(ctx, as)
		}
		sp := tr.begin(parent, "valuation", "Program.EvalBatchN")
		rows := prog.EvalBatchN(as, nil, workers)
		tr.end(sp, len(as)*prog.Size())
		return rows, nil
	}
}
