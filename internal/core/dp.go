package core

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// DPSingleTreeSource computes the optimal abstraction for a single tree:
// among all cuts whose compressed size is at most bound, it returns one with
// the maximum number of cut nodes (meta-variables), breaking ties towards
// the smaller compressed size. It runs in O(L²) knapsack time (L = number of
// leaves) plus one O(M·depth) signature-indexing scan (M = number of
// monomials) — the dominant cost on large provenance, built
// shard-at-a-time over any SetSource and sharded over up to workers
// goroutines (workers <= 1 runs fully sequentially). The result —
// including the input statistics, which come from the source's streaming
// metadata — is identical for every source representation and worker
// count.
//
// It returns *InfeasibleError if even the root cut exceeds bound, and
// *MultiVarError if a monomial contains two leaves of the tree.
func DPSingleTreeSource(src polynomial.SetSource, tree *abstraction.Tree, bound int, workers int) (*Result, error) {
	if bound < 0 {
		return nil, errNegativeBound(bound)
	}
	idx, err := buildIndexSource(src, tree, workers)
	if err != nil {
		return nil, err
	}
	r, err := dpChooseCut(tree, idx, bound)
	if err != nil {
		return nil, err
	}
	fillResultFrom(r, src.Size(), src.UsedVars())
	return r, nil
}

// errNegativeBound is the error every entry point returns for a negative
// bound — shared so sweep answers match per-bound compression exactly.
func errNegativeBound(bound int) error {
	return fmt.Errorf("core: negative bound %d", bound)
}

// dpState holds the per-node DP tables needed for reconstruction.
type dpState struct {
	// best[v][k-1] = minimal Σ distinct over subtree(v) using exactly k cut
	// nodes, k = 1..leaves(v).
	best [][]int64
	// splits[v][i][k] = number of cut nodes assigned to child i of v when
	// the prefix children 0..i jointly use k cut nodes (k ≥ i+1). Index 0
	// of the k dimension is unused padding.
	splits [][][]int32
	leaves []int
}

// dpChooseCut runs the DP and reconstruction on a finished index, leaving
// the input-set statistics (OriginalSize etc.) for the caller to fill —
// the sharded path computes them without materializing the set.
func dpChooseCut(tree *abstraction.Tree, idx *index, bound int) (*Result, error) {
	st, err := solveDP(tree, idx)
	if err != nil {
		return nil, err
	}

	root := tree.Root()
	rootRow := st.best[root]
	budget := int64(bound) - int64(idx.fixed)
	bestK := -1
	for k := len(rootRow); k >= 1; k-- {
		if rootRow[k-1] <= budget {
			bestK = k
			break
		}
	}
	if bestK < 0 {
		minSize := int(rootRow[0]) + idx.fixed
		return nil, &InfeasibleError{Bound: bound, MinAchievable: minSize}
	}

	nodes := make([]abstraction.NodeID, 0, bestK)
	reconstruct(tree, st, root, bestK, &nodes)
	cut, err := abstraction.NewCut(tree, nodes...)
	if err != nil {
		return nil, fmt.Errorf("core: internal error, DP produced invalid cut: %w", err)
	}
	return &Result{
		Cuts: []abstraction.Cut{cut},
		Size: int(rootRow[bestK-1]) + idx.fixed,
	}, nil
}

// solveDP fills the bottom-up tables; reconstruction reads them back.
func solveDP(tree *abstraction.Tree, idx *index) (*dpState, error) {
	st := &dpState{
		best:   make([][]int64, tree.Len()),
		splits: make([][][]int32, tree.Len()),
		leaves: leafCounts(tree),
	}

	for _, v := range tree.Postorder() {
		n := tree.Node(v)
		lv := st.leaves[v]
		row := make([]int64, lv)
		for i := range row {
			row[i] = inf
		}
		if len(n.Children) == 0 {
			row[0] = idx.distinct[v]
			st.best[v] = row
			continue
		}
		// Sequential knapsack over children: cur[k-1] = min cost of covering
		// the first i children's leaves with k cut nodes.
		nodeSplits := make([][]int32, len(n.Children))
		var cur []int64
		curLeaves := 0
		for ci, c := range n.Children {
			cl := st.leaves[c]
			child := st.best[c]
			if ci == 0 {
				cur = append([]int64(nil), child...)
				curLeaves = cl
				// splits for the first child: trivially k to child 0.
				sp := make([]int32, cl+1)
				for k := 1; k <= cl; k++ {
					sp[k] = int32(k)
				}
				nodeSplits[0] = sp
				continue
			}
			nextLeaves := curLeaves + cl
			next := make([]int64, nextLeaves)
			for i := range next {
				next[i] = inf
			}
			sp := make([]int32, nextLeaves+1)
			for ka := 1; ka <= curLeaves; ka++ {
				if cur[ka-1] >= inf {
					continue
				}
				for kb := 1; kb <= cl; kb++ {
					if child[kb-1] >= inf {
						continue
					}
					k := ka + kb
					cost := cur[ka-1] + child[kb-1]
					if cost < next[k-1] {
						next[k-1] = cost
						sp[k] = int32(kb)
					}
				}
			}
			nodeSplits[ci] = sp
			cur = next
			curLeaves = nextLeaves
		}
		// k = 1 means cutting at v itself; k ≥ #children comes from the
		// children combination. (For a single child, cutting at v and at the
		// child give the same distinct count, so preferring v is lossless.)
		copy(row, cur)
		row[0] = idx.distinct[v]
		st.best[v] = row
		st.splits[v] = nodeSplits
	}
	return st, nil
}

// reconstruct walks the DP choices, appending the chosen cut nodes.
func reconstruct(tree *abstraction.Tree, st *dpState, v abstraction.NodeID, k int, out *[]abstraction.NodeID) {
	n := tree.Node(v)
	if k == 1 || len(n.Children) == 0 {
		*out = append(*out, v)
		return
	}
	// Undo the sequential knapsack child by child, from last to first.
	for ci := len(n.Children) - 1; ci >= 1; ci-- {
		kb := int(st.splits[v][ci][k])
		reconstruct(tree, st, n.Children[ci], kb, out)
		k -= kb
	}
	reconstruct(tree, st, n.Children[0], k, out)
}
