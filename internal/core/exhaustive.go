package core

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// MaxExhaustiveCuts caps the number of cuts Exhaustive will enumerate before
// giving up: the number of cuts may be exponential in the tree size, and
// Exhaustive exists as a ground-truth oracle for small trees, not a
// production path.
const MaxExhaustiveCuts = 2_000_000

// Exhaustive solves the single-tree problem by enumerating every cut and
// scoring it with the additive size formula. Results are optimal and used in
// tests as the oracle against DPSingleTreeSource. It fails if the tree has more
// than MaxExhaustiveCuts cuts.
func Exhaustive(set *polynomial.Set, tree *abstraction.Tree, bound int) (*Result, error) {
	if bound < 0 {
		return nil, errNegativeBound(bound)
	}
	if n := tree.CountCuts(); n > MaxExhaustiveCuts {
		return nil, fmt.Errorf("core: tree has %d cuts, exceeding the exhaustive cap %d", n, MaxExhaustiveCuts)
	}
	idx, err := buildIndex(set, tree)
	if err != nil {
		return nil, err
	}
	var (
		found    bool
		bestCut  abstraction.Cut
		bestVars int
		bestSize int64
		minSize  = inf
	)
	tree.EnumerateCuts(func(c abstraction.Cut) bool {
		size := idx.cutSize(c)
		if size < minSize {
			minSize = size
		}
		if size > int64(bound) {
			return true
		}
		vars := c.NumVars()
		if !found || vars > bestVars || (vars == bestVars && size < bestSize) {
			found = true
			bestCut = c
			bestVars = vars
			bestSize = size
		}
		return true
	})
	if !found {
		return nil, &InfeasibleError{Bound: bound, MinAchievable: int(minSize)}
	}
	r := &Result{Cuts: []abstraction.Cut{bestCut}, Size: int(bestSize)}
	fillResult(r, set)
	return r, nil
}
