package main

import (
	"fmt"
	"math/rand"
	"runtime"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// memTarget is an in-memory provenance set opened as a Dataset, compressed
// once at a warm bound, with both programs compiled: the state the slider
// and batch phases measure.
type memTarget struct {
	set      *polynomial.Set
	tree     *abstraction.Tree
	full     *cobra.Dataset
	comp     *cobra.Dataset
	bound    int // the warm bound res answers
	res      *core.Result
	fullProg *valuation.Program // traced runs only
	compProg *valuation.Program // traced runs only
}

// warmUp opens, compresses at bound and answers one scenario on each side,
// so first-use compilation is paid before measurement.
func warmUp(name string, set *polynomial.Set, tree *abstraction.Tree, bound int, traced bool) (*memTarget, error) {
	t := &memTarget{set: set, tree: tree, bound: bound}
	var err error
	if t.full, err = cobra.OpenDataset(name, set, cobra.Forest{tree}, cobra.Options{}); err != nil {
		return nil, err
	}
	if t.res, err = t.full.Compress(ctx, bound); err != nil {
		return nil, err
	}
	if t.comp, err = t.full.Apply(ctx, t.res.Cuts...); err != nil {
		return nil, err
	}
	identity := []*valuation.Assignment{valuation.New(set.Names)}
	if _, err = t.full.EvalBatch(ctx, identity); err != nil {
		return nil, err
	}
	if _, err = t.comp.EvalBatch(ctx, identity); err != nil {
		return nil, err
	}
	if traced {
		compSet := polynomial.NewSet(set.Names)
		if err = abstraction.ApplySource(set, compSet, 1, t.res.Cuts...); err != nil {
			return nil, err
		}
		t.fullProg, t.compProg = valuation.Compile(set), valuation.Compile(compSet)
	}
	return t, nil
}

func (t *memTarget) close() {
	t.comp.Close()
	t.full.Close()
}

// oracle answers a leaf-level scenario on the full provenance.
func (t *memTarget) oracle(a *valuation.Assignment) ([]float64, error) {
	rows, err := t.full.EvalBatch(ctx, []*valuation.Assignment{a})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// whatif draws the target's scenario pools: uniform on the warm cut's
// groups, plus the context variables outside the tree. sliderContext says
// whether a slider may change a context variable too.
func (t *memTarget) whatif(r *rand.Rand, sc scale, sliderContext bool) *whatif {
	sparse := cutGroups(t.res.Cuts...)
	dense := append(sparse[:len(sparse):len(sparse)], contextGroups(t.set.UsedVars(), cobra.Forest{t.tree})...)
	if sliderContext {
		sparse = dense
	}
	q := newWhatif(r, sc, sliderPool, t.set.Names, t.res.Cuts, sparse, dense)
	q.comp, q.full = datasetEval(t.comp, t.compProg), datasetEval(t.full, t.fullProg)
	q.oracle = t.oracle
	return q
}

// coldOp is the in-memory cold path: open the set as a fresh Dataset,
// compress at a pooled bound, apply, and answer one pooled scenario.
type coldOp struct {
	set      *polynomial.Set
	tree     *abstraction.Tree
	bounds   []int
	leaves   []*valuation.Assignment // leaf-level scenarios, one per op, cycled
	sizes    *sizeCheck
	oracle   func(*valuation.Assignment) ([]float64, error)
	perRound int
}

func (c *coldOp) phase() phase {
	return phase{name: "cold", perRound: c.perRound, heavy: true, run: func(x *runner, i int) {
		bound, leaf := c.bounds[i%len(c.bounds)], c.leaves[i%len(c.leaves)]
		forest := cobra.Forest{c.tree}
		x.timed("cold", func(root int) (func() error, error) {
			ds, err := openDataset(x.tr, root, "cold", c.set, forest, cobra.Options{})
			if err != nil {
				return nil, err
			}
			defer ds.Close()
			var ans *answer
			if x.tr == nil {
				ans, err = facadeTail(x, ds, bound, leaf)
			} else {
				ans, err = layerTail(x.tr, root, c.set, forest, bound, leaf)
			}
			if err != nil {
				return nil, err
			}
			return func() error { return ans.check(c.sizes, c.oracle) }, nil
		})
	}}
}

// coarseScenarios draws sparse scenarios over the root's children and the
// context variables: the cold path's cut differs per bound, and these are
// uniform for every cut below the root.
func coarseScenarios(r *rand.Rand, n int, set *polynomial.Set, trees abstraction.Forest) []*valuation.Assignment {
	groups := append(rootChildGroups(trees), contextGroups(set.UsedVars(), trees)...)
	out := make([]*valuation.Assignment, n)
	for i := range out {
		out[i] = sparseScenario(r, set.Names, groups)
	}
	return out
}

// sweepBounds is how many bounds one sweep asks for.
const sweepBounds = 32

// uniformBounds draws n bounds from [lo, hi], one uniformly from each of n
// equal strata, in shuffled order: every seed covers the whole range, so
// the work of a pass over the bounds does not depend on the draw.
func uniformBounds(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	width := float64(hi-lo) / float64(n)
	for i := range out {
		out[i] = lo + int((float64(i)+r.Float64())*width)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// frontierPhase computes the whole tradeoff curve on a fresh Dataset and
// answers a sweep of bounds from it.
func frontierPhase(set *polynomial.Set, tree *abstraction.Tree, bounds []int, perRound int) phase {
	return phase{name: "frontier", perRound: perRound, heavy: true, run: func(x *runner, _ int) {
		x.timed("frontier", func(root int) (func() error, error) {
			ds, err := openDataset(x.tr, root, "frontier", set, cobra.Forest{tree}, cobra.Options{})
			if err != nil {
				return nil, err
			}
			var answers []core.SweepAnswer
			if x.tr == nil {
				if _, err = ds.Frontier(ctx); err == nil {
					answers, err = ds.Sweep(ctx, bounds)
				}
			} else {
				sp := x.tr.begin(root, "core", "FrontierSourceN")
				curve, ferr := core.FrontierSourceN(set, tree, 1)
				x.tr.end(sp, set.Size())
				sp = x.tr.begin(root, "core", "AnswersFromCurves")
				answers = core.AnswersFromCurves(1, curve, nil, ds.Size(), ds.UsedVars(), bounds)
				x.tr.end(sp, len(bounds))
				err = ferr
			}
			if err != nil {
				return nil, err
			}
			return func() error { return checkSweep(answers, bounds) }, nil
		})
	}}
}

// checkSweep demands an answer within its bound for every bound (the
// bounds are drawn at or above the root-cut size, so none is infeasible).
func checkSweep(answers []core.SweepAnswer, bounds []int) error {
	if len(answers) != len(bounds) {
		return fmt.Errorf("%d sweep answers for %d bounds", len(answers), len(bounds))
	}
	for i, a := range answers {
		if a.Err != nil {
			return fmt.Errorf("bound %d: %w", bounds[i], a.Err)
		}
		if a.Result.Size > bounds[i] {
			return fmt.Errorf("bound %d answered with size %d", bounds[i], a.Result.Size)
		}
	}
	return nil
}

// forestPhase compresses under two coupled trees (every monomial holds a
// leaf of each), which takes the coordinate-descent path the single-tree
// DP never reaches.
func forestPhase(set *polynomial.Set, trees abstraction.Forest, bounds []int, perRound int) phase {
	return phase{name: "forest", perRound: perRound, heavy: true, run: func(x *runner, i int) {
		bound := bounds[i%len(bounds)]
		x.timed("forest", func(root int) (func() error, error) {
			ds, err := openDataset(x.tr, root, "forest", set, trees, cobra.Options{})
			if err != nil {
				return nil, err
			}
			var res *core.Result
			if x.tr == nil {
				res, err = ds.Compress(ctx, bound)
			} else {
				sp := x.tr.begin(root, "core", "CompressSource")
				res, err = core.CompressSource(set, trees, bound, 1)
				x.tr.end(sp, set.Size())
			}
			if err != nil {
				return nil, err
			}
			return func() error {
				if res.Size > bound {
					return fmt.Errorf("forest size %d exceeds bound %d", res.Size, bound)
				}
				return nil
			}, nil
		})
	}}
}

// prefix returns the set's first n polynomials as a set of its own.
func prefix(set *polynomial.Set, n int) *polynomial.Set {
	n = min(n, set.Len())
	return &polynomial.Set{Names: set.Names, Keys: set.Keys[:n], Polys: set.Polys[:n]}
}

// buildRetail sets up compress_sweep and whatif_retail: the same seeded
// instance, measured with opposite emphasis.
func buildRetail(name string, seed int64, sc scale, tr *tracer) (*workload, error) {
	w := newWorkload(name)
	traced := tr != nil
	cfg := retailFull
	if sc == smoke {
		cfg = retailSmoke
	}
	sw := startWatch()
	rt, err := generateRetail(cfg, seed)
	if err != nil {
		return nil, err
	}
	w.lap("generate", sw)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	size, floor := rt.set.Size(), rootCutSize(rt.set, rt.skus)

	t, err := warmUp(name, rt.set, rt.skus, size/2, traced)
	if err != nil {
		return nil, err
	}
	if err := interiorCut(t.res.Cuts[0]); err != nil {
		return nil, fmt.Errorf("retail warm cut at bound %d: %w", size/2, err)
	}
	// A retail slider scales the leaves under one to three nodes of the cut
	// and no week: a week occurs in an eighth of the stores, a cut node in a
	// few of them, and few is the property this instance is here for.
	q := t.whatif(r, sc, false)
	cold := &coldOp{set: rt.set, tree: rt.skus, sizes: newSizeCheck(rt.set), oracle: t.oracle,
		leaves: coarseScenarios(r, 16, rt.set, cobra.Forest{rt.skus})}

	w.monomials = size
	cutCounts(w.counts, t.res)
	w.prepare = func(*runner) error { return q.prepare(w, rt.set) }
	w.close = t.close
	sweep := uniformBounds(r, sweepBounds, floor, size)
	w.probes = func(x *runner) {
		memProbes(x, t, q)
		x.probe("core.sweep32", 5, func() {
			if _, err := core.FrontierSweepSource(rt.set, cobra.Forest{rt.skus}, sweep, 1); err != nil {
				x.fail("probe core.sweep32", err)
			}
		})
	}

	if name == "whatif_retail" {
		cold.bounds, cold.perRound = []int{size / 2}, 1
		w.phases = append([]phase{cold.phase()}, q.phases(w, mix{sliderPasses: 4, sliderFullPasses: 3, batch: 4, batchFull: 2})...)
		return w, nil
	}
	cold.bounds, cold.perRound = uniformBounds(r, 12, floor, size), 3
	// The forest op runs on a prefix of the stores: at full size one
	// coordinate descent takes most of a second, too few samples a run.
	forestSet := prefix(rt.set, rt.set.Len()*3/10)
	forest := cobra.Forest{rt.skus, rt.weeks}
	forestFloor := core.SizeOfCuts(forestSet, rt.skus.RootCut(), rt.weeks.RootCut())
	w.phases = append([]phase{
		cold.phase(),
		frontierPhase(rt.set, rt.skus, sweep, 2),
		forestPhase(forestSet, forest, uniformBounds(r, 8, forestFloor+(forestSet.Size()-forestFloor)/4, forestSet.Size()), 1),
	}, q.phases(w, mix{sliderPasses: 2, sliderFullPasses: 1, batch: 2, batchFull: 1})...)
	return w, nil
}

// buildTelephony sets up whatif_telephony: the paper's §4 instance, where
// every variable occurs in every polynomial.
func buildTelephony(name string, seed int64, sc scale, tr *tracer) (*workload, error) {
	w := newWorkload(name)
	traced := tr != nil
	customers := 1_000_000
	if sc == smoke {
		customers = 20_000
	}
	sw := startWatch()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: customers}, names)
	tree := telephony.PlansTree(names)
	w.lap("generate", sw)
	r := rand.New(rand.NewSource(seed))

	t, err := warmUp(name, set, tree, set.Size()/3, traced)
	if err != nil {
		return nil, err
	}
	q := t.whatif(r, sc, true)
	cold := &coldOp{set: set, tree: tree, bounds: []int{set.Size() / 3}, perRound: 2,
		sizes: newSizeCheck(set), oracle: t.oracle, leaves: coarseScenarios(r, 16, set, cobra.Forest{tree})}

	w.monomials = set.Size()
	cutCounts(w.counts, t.res)
	w.prepare = func(*runner) error { return q.prepare(w, set) }
	w.close = t.close
	w.probes = func(x *runner) { memProbes(x, t, q) }
	w.phases = append([]phase{cold.phase()}, q.phases(w, mix{sliderPasses: 8, sliderFullPasses: 4, batch: 8, batchFull: 4})...)
	return w, nil
}

// memProbes times single layers on a warm in-memory target, each alone:
// the numbers a layer-level optimisation moves first.
func memProbes(x *runner, t *memTarget, q *whatif) {
	set, tree, bound := t.set, t.tree, t.bound
	const n = 5
	workerProbes(x, t, q, 1, n)
	onTwoCPUs(func() { workerProbes(x, t, q, 2, n) })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.DPSingleTreeSource(set, tree, bound, 1); err != nil {
		x.fail("probe core.dp", err)
	}
	runtime.ReadMemStats(&after)
	x.counts["core.alloc_bytes_per_monomial"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(set.Size()))

	x.probe("valuation.compile", n, func() { valuation.Compile(set) })
	dense := q.sliders[0].Dense(t.fullProg.NumVars())
	var out []float64
	x.probe("valuation.eval", 4*n, func() { out = t.fullProg.Eval(dense, out) })
	x.probe("valuation.dense_fill.x100", n, func() {
		for i := 0; i < 100; i++ {
			dense = q.sliders[i%len(q.sliders)].Dense(t.fullProg.NumVars())
		}
	})
	x.probe("cobra.memo_hit.x100", n, func() {
		for i := 0; i < 100; i++ {
			if _, err := t.full.Compress(ctx, bound); err != nil {
				x.fail("probe cobra.memo_hit", err)
			}
		}
	})
}

// workerProbes times the three stages that take a worker count, at that
// count: the w1/w2 pairs give the two-worker ratios.
func workerProbes(x *runner, t *memTarget, q *whatif, workers, n int) {
	x.probe(fmt.Sprintf("core.dp.w%d", workers), n, func() {
		if _, err := core.DPSingleTreeSource(t.set, t.tree, t.bound, workers); err != nil {
			x.fail("probe core.dp", err)
		}
	})
	x.probe(fmt.Sprintf("abstraction.apply.w%d", workers), n, func() {
		if err := abstraction.ApplySource(t.set, polynomial.NewSet(t.set.Names), workers, t.res.Cuts...); err != nil {
			x.fail("probe abstraction.apply", err)
		}
	})
	x.probe(fmt.Sprintf("valuation.evalbatch.w%d", workers), n, func() {
		t.compProg.EvalBatchN(q.batchesCut[0], nil, workers)
	})
}
