package core

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// FrontierPoint is one point of the expressiveness/size tradeoff: the
// minimal compressed size achievable with exactly NumMeta meta-variables,
// and a cut attaining it.
type FrontierPoint struct {
	NumMeta int
	MinSize int
	Cut     abstraction.Cut
}

// FrontierSourceN computes the complete tradeoff curve for a single tree in
// one DP run: for every structurally feasible number of cut nodes k, the
// minimal compressed size and an optimal cut. It is what the demo's bound
// slider explores — given the frontier, the optimum for ANY bound is a
// lookup (the largest k whose MinSize fits), which is how
// FrontierSweepSource answers a whole batch of bounds from one DP run.
//
// Points are returned in increasing k; k values with no valid cut (e.g.
// k=2 when the root has three children) are omitted. MinSize is
// non-increasing as k decreases only in the aggregate sense — the curve
// reports exact per-k minima.
//
// The signature index is built shard-at-a-time over any SetSource — an
// in-memory Set or a spilling ShardedSet, whose peak residency stays within
// its MaxResidentMonomials budget — with the indexing pass sharded over up
// to workers goroutines. The points are identical for every source
// representation and worker count.
func FrontierSourceN(src polynomial.SetSource, tree *abstraction.Tree, workers int) ([]FrontierPoint, error) {
	idx, err := buildIndexSource(src, tree, workers)
	if err != nil {
		return nil, err
	}
	st, err := solveDP(tree, idx)
	if err != nil {
		return nil, err
	}
	rootRow := st.best[tree.Root()]
	var out []FrontierPoint
	for k := 1; k <= len(rootRow); k++ {
		if rootRow[k-1] >= inf {
			continue
		}
		cut, err := reconstructCut(tree, st, k)
		if err != nil {
			return nil, err
		}
		out = append(out, FrontierPoint{
			NumMeta: k,
			MinSize: int(rootRow[k-1]) + idx.fixed,
			Cut:     cut,
		})
	}
	return out, nil
}

// testFrontierCutNodes, when non-nil, may rewrite the node set a frontier
// reconstruction produced before it is validated — a failpoint for
// exercising the invalid-cut error path, which is unreachable through the
// public API (the DP only reconstructs feasible k).
var testFrontierCutNodes func(tree *abstraction.Tree, k int, nodes []abstraction.NodeID) []abstraction.NodeID

// reconstructCut walks the DP choices for exactly k cut nodes below the
// root and validates the resulting cut.
func reconstructCut(tree *abstraction.Tree, st *dpState, k int) (abstraction.Cut, error) {
	nodes := make([]abstraction.NodeID, 0, k)
	reconstruct(tree, st, tree.Root(), k, &nodes)
	if testFrontierCutNodes != nil {
		nodes = testFrontierCutNodes(tree, k, nodes)
	}
	cut, err := abstraction.NewCut(tree, nodes...)
	if err != nil {
		return abstraction.Cut{}, fmt.Errorf("core: internal error, frontier cut invalid at k=%d: %w", k, err)
	}
	return cut, nil
}

// BestForBound picks the frontier point the optimizer would return for the
// bound: the maximal feasible number of meta-variables and, among points
// tied on that count, the smallest MinSize — the DP's own tie-breaking, so
// the choice is deterministic even over caller-assembled point lists. ok is
// false if no point fits.
func BestForBound(frontier []FrontierPoint, bound int) (FrontierPoint, bool) {
	best, ok := -1, false
	for i := range frontier {
		if frontier[i].MinSize > bound {
			continue
		}
		if !ok || frontier[i].NumMeta > frontier[best].NumMeta ||
			(frontier[i].NumMeta == frontier[best].NumMeta && frontier[i].MinSize < frontier[best].MinSize) {
			best, ok = i, true
		}
	}
	if !ok {
		return FrontierPoint{}, false
	}
	return frontier[best], true
}
