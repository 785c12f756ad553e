// Batched multi-bound frontier sweeps: hypothetical reasoning in practice
// means sliding a size bound interactively, and re-running the DP per bound
// re-pays its dominant cost — the signature-indexing scan — every time. A
// sweep runs the DP once, extracts the full tradeoff curve, and answers an
// arbitrary batch of bounds by lookup.

package core

import (
	"errors"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// SweepAnswer is a frontier sweep's answer for one requested bound: either
// the Result per-bound compression would have produced, or the error it
// would have returned (an *InfeasibleError for unreachable bounds). Exactly
// one of Result and Err is non-nil.
type SweepAnswer struct {
	Bound  int
	Result *Result
	Err    error
}

// FrontierSweepSource answers an arbitrary batch of bounds from ONE DP run
// over any SetSource: the tradeoff curve is computed once (FrontierSourceN
// for a single tree, FrontierForestSource for a forest) and every bound
// becomes a curve lookup, so a batch of N bounds costs one compression
// instead of N. Answers are returned in bounds order; duplicate bounds are
// answered consistently.
//
// For a single tree each answer is bit-identical — cut, sizes, statistics,
// and error — to what DPSingleTreeSource(src, tree, bound, workers) returns
// for that bound, for every worker count. For a forest the sweep requires
// each monomial to touch at most one tree (CrossTreeError otherwise) and
// the answers are then exact optima (maximal total cut nodes, ties toward
// smaller size) — matching ExhaustiveForest where coordinate descent may
// settle for less.
//
// A hard error (cross-tree or multi-variable monomials, invalid forest)
// fails the whole sweep; per-bound infeasibility lands in that bound's
// answer.
func FrontierSweepSource(src polynomial.SetSource, trees abstraction.Forest, bounds []int, workers int) ([]SweepAnswer, error) {
	if len(trees) == 0 {
		return nil, errors.New("core: no abstraction trees given")
	}
	var (
		single []FrontierPoint
		forest []ForestFrontierPoint
		err    error
	)
	if len(trees) == 1 {
		single, err = FrontierSourceN(src, trees[0], workers)
	} else {
		forest, err = FrontierForestSource(src, trees, workers)
	}
	if err != nil {
		return nil, err
	}
	return AnswersFromCurves(len(trees), single, forest, src.Size(), src.UsedVars(), bounds), nil
}

// AnswersFromCurves answers a batch of bounds from already-computed
// tradeoff curves — the lookup half of FrontierSweepSource, split out so
// callers that memoize a curve (a session Dataset, the REPL) can answer
// sweeps without re-running the DP. numTrees selects which curve applies
// (single for one tree, forest otherwise); size and used are the input
// set's statistics, shared by every answer. The answers are bit-identical
// to FrontierSweepSource over the same source.
func AnswersFromCurves(numTrees int, single []FrontierPoint, forest []ForestFrontierPoint, size int, used []polynomial.Var, bounds []int) []SweepAnswer {
	// MinAchievable for infeasible bounds: the coarsest point — every
	// tree's root — which both curves emit first (coarsening only merges
	// monomials, so it is the global minimum).
	minAch := 0
	if len(single) > 0 {
		minAch = single[0].MinSize
	}
	if len(forest) > 0 {
		minAch = forest[0].MinSize
	}

	answers := make([]SweepAnswer, len(bounds))
	for bi, bound := range bounds {
		a := SweepAnswer{Bound: bound}
		switch {
		case bound < 0 && numTrees == 1:
			// Per-bound DP rejects negative bounds rather than reporting
			// them infeasible; answer with the identical error.
			a.Err = errNegativeBound(bound)
		case numTrees == 1:
			if p, ok := BestForBound(single, bound); ok {
				r := &Result{Cuts: []abstraction.Cut{p.Cut}, Size: p.MinSize}
				fillResultFrom(r, size, used)
				a.Result = r
			} else {
				a.Err = &InfeasibleError{Bound: bound, MinAchievable: minAch}
			}
		default:
			if p, ok := BestForForestBound(forest, bound); ok {
				r := &Result{Cuts: append([]abstraction.Cut(nil), p.Cuts...), Size: p.MinSize}
				fillResultFrom(r, size, used)
				a.Result = r
			} else {
				a.Err = &InfeasibleError{Bound: bound, MinAchievable: minAch}
			}
		}
		answers[bi] = a
	}
	return answers
}
