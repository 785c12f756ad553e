// Forest-level frontier curves. A single tree's tradeoff curve comes from
// one DP run (frontier.go); this file composes per-tree curves into one
// forest-level curve with a knapsack-style DP over the trees. The
// composition is exact precisely when every monomial contains leaves of at
// most one tree of the forest — then the compressed size of a joint cut is
// additive across trees:
//
//	size(C_1, …, C_n) = fixed + Σ_i Σ_{u ∈ C_i} distinct_i(u)
//
// where fixed counts monomials containing no leaf of any tree. A monomial
// coupling two trees breaks additivity (its merges depend on both cuts
// jointly — the NP-hard case), so FrontierForestSource rejects it with a
// CrossTreeError; coordinate descent (ForestDescentSource) remains the tool for
// coupled instances.

package core

import (
	"errors"
	"fmt"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// ForestFrontierPoint is one point of the forest-level tradeoff curve: the
// minimal joint compressed size achievable with exactly NumMeta cut nodes
// across the whole forest, and cuts (one per tree, in forest order)
// attaining it.
type ForestFrontierPoint struct {
	NumMeta int
	MinSize int
	Cuts    []abstraction.Cut
}

// CrossTreeError reports a monomial containing leaves of two different
// abstraction trees of the forest. Such a monomial couples the trees' cut
// choices — the compressed size stops being additive across trees and the
// joint optimization becomes NP-hard — so the frontier composition refuses
// the instance rather than return wrong minima. TreeA and TreeB index into
// the forest in the order the leaves were encountered within the monomial.
type CrossTreeError struct {
	Key          string // group key of the offending polynomial
	Mono         string // rendering of the offending monomial
	TreeA, TreeB int
}

func (e *CrossTreeError) Error() string {
	return fmt.Sprintf("core: monomial %q in group %q contains leaves of abstraction trees %d and %d; forest frontier sweeps require each monomial to touch at most one tree (use ForestDescentSource for coupled instances)",
		e.Mono, e.Key, e.TreeA, e.TreeB)
}

// FrontierForestSource computes the complete forest-level tradeoff curve
// over any SetSource: each tree's per-k minima come from its own DP run
// (computed in parallel across trees for in-memory sets; strictly one tree
// at a time for sharded sources, so the residency budget holds), then a
// knapsack-style DP over the trees merges the per-tree curves into joint
// per-k minima. Points are returned in increasing total k (starting at
// len(trees) — every tree contributes at least its root); k values no
// combination of per-tree cuts can realize are omitted.
//
// The curve is exact — every MinSize equals the materialized size of its
// Cuts, and no joint cut with NumMeta cut nodes is smaller — under the
// condition it enforces: each monomial may contain leaves of at most one
// tree (CrossTreeError otherwise, MultiVarError for two leaves of the same
// tree). Every sub-computation is deterministic, so the curve is
// bit-identical for every source representation and worker count.
func FrontierForestSource(src polynomial.SetSource, trees abstraction.Forest, workers int) ([]ForestFrontierPoint, error) {
	if len(trees) == 0 {
		return nil, errors.New("core: no abstraction trees given")
	}
	if err := trees.Validate(); err != nil {
		return nil, err
	}
	workers = parallel.Normalize(workers)
	if len(trees) == 1 {
		// Single tree: the per-tree curve IS the forest curve (and the
		// single-tree index's fixed count equals the forest's).
		fr, err := FrontierSourceN(src, trees[0], workers)
		if err != nil {
			return nil, err
		}
		out := make([]ForestFrontierPoint, len(fr))
		for i, p := range fr {
			out[i] = ForestFrontierPoint{NumMeta: p.NumMeta, MinSize: p.MinSize, Cuts: []abstraction.Cut{p.Cut}}
		}
		return out, nil
	}

	fixed, err := forestPartitionSource(src, trees, workers)
	if err != nil {
		return nil, err
	}

	// Per-tree DP states, one frontier run each. In-memory sets — a Set,
	// or a PackedSet, whose every pass reads its slabs into a fresh View —
	// and indexed (random-access) sources solve the trees in parallel over
	// the pool: their independent passes can run concurrently, each
	// tree's indexing pass sharding the leftover width. Other sources —
	// ShardedSets streaming spill files under one residency budget, whose
	// passes serialize on an internal mutex — solve strictly one tree at
	// a time with the full width, which the disk pipeline then overlaps
	// per-pass (polynomial.ForEachShardN inside buildIndexSource). Either
	// way each tree's state is deterministic, so the composed curve is
	// identical for every worker count and source representation.
	states := make([]*dpState, len(trees))
	errs := make([]error, len(trees))
	solve := func(i, w int) {
		idx, err := buildIndexSource(src, trees[i], w)
		if err != nil {
			errs[i] = err
			return
		}
		states[i], errs[i] = solveDP(trees[i], idx)
	}
	base := polynomial.Unwrap(src)
	_, set := base.(*polynomial.Set)
	_, packed := base.(*polynomial.PackedSet)
	ix, indexed := base.(polynomial.IndexedSource)
	concurrentOK := set || packed || indexed && ix.ConcurrentPasses()
	if concurrentOK && workers > 1 {
		inner := workers / len(trees)
		parallel.ForEach(workers, len(trees), func(i int) { solve(i, inner) })
	} else {
		for i := range trees {
			solve(i, workers)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Knapsack-style DP over the trees' root rows, mirroring solveDP's
	// sequential knapsack over children: cur[k-1] = minimal Σ distinct
	// when the first i trees jointly use k cut nodes; splits[i][k] = cut
	// nodes assigned to tree i at that optimum (reconstruction peels trees
	// from the last down to tree 1, so tree 0 needs no split table — it
	// receives whatever remains).
	var (
		cur      []int64
		curTotal int
		splits   = make([][]int32, len(trees))
	)
	for i := range trees {
		row := states[i].best[trees[i].Root()]
		if i == 0 {
			cur = append([]int64(nil), row...)
			curTotal = len(row)
			continue
		}
		nextTotal := curTotal + len(row)
		next := make([]int64, nextTotal)
		for j := range next {
			next[j] = inf
		}
		sp := make([]int32, nextTotal+1)
		for ka := 1; ka <= curTotal; ka++ {
			if cur[ka-1] >= inf {
				continue
			}
			for kb := 1; kb <= len(row); kb++ {
				if row[kb-1] >= inf {
					continue
				}
				k := ka + kb
				cost := cur[ka-1] + row[kb-1]
				if cost < next[k-1] {
					next[k-1] = cost
					sp[k] = int32(kb)
				}
			}
		}
		splits[i] = sp
		cur = next
		curTotal = nextTotal
	}

	// Extract the curve, reconstructing each tree's cut at its assigned k
	// once (many forest points share per-tree k values).
	cutCache := make([]map[int]abstraction.Cut, len(trees))
	cutAt := func(i, k int) (abstraction.Cut, error) {
		if c, ok := cutCache[i][k]; ok {
			return c, nil
		}
		c, err := reconstructCut(trees[i], states[i], k)
		if err != nil {
			return abstraction.Cut{}, err
		}
		if cutCache[i] == nil {
			cutCache[i] = make(map[int]abstraction.Cut)
		}
		cutCache[i][k] = c
		return c, nil
	}
	var out []ForestFrontierPoint
	for k := 1; k <= curTotal; k++ {
		if cur[k-1] >= inf {
			continue
		}
		cuts := make([]abstraction.Cut, len(trees))
		rem := k
		for i := len(trees) - 1; i >= 1; i-- {
			kb := int(splits[i][rem])
			c, err := cutAt(i, kb)
			if err != nil {
				return nil, err
			}
			cuts[i] = c
			rem -= kb
		}
		c, err := cutAt(0, rem)
		if err != nil {
			return nil, err
		}
		cuts[0] = c
		out = append(out, ForestFrontierPoint{
			NumMeta: k,
			MinSize: int(cur[k-1]) + fixed,
			Cuts:    cuts,
		})
	}
	return out, nil
}

// BestForForestBound picks the forest curve point the optimizer would
// return for the bound: the maximal feasible number of cut nodes and,
// among points tied on that count, the smallest MinSize. ok is false if no
// point fits.
func BestForForestBound(points []ForestFrontierPoint, bound int) (ForestFrontierPoint, bool) {
	best, ok := -1, false
	for i := range points {
		if points[i].MinSize > bound {
			continue
		}
		if !ok || points[i].NumMeta > points[best].NumMeta ||
			(points[i].NumMeta == points[best].NumMeta && points[i].MinSize < points[best].MinSize) {
			best, ok = i, true
		}
	}
	if !ok {
		return ForestFrontierPoint{}, false
	}
	return points[best], true
}

// forestPartitionSource scans the source once, checking that every
// monomial contains leaves of at most one tree and counting the monomials
// containing no leaf of any tree — the fixed part every joint cut shares.
// Large shards scan runs of whole polynomials in parallel (polyRuns); the
// run counts are order-independent and on error the earliest run's first
// error wins (the same monomial a sequential scan would report), so both
// the count and the error are identical for every worker count.
func forestPartitionSource(src polynomial.SetSource, trees abstraction.Forest, workers int) (int, error) {
	owners := trees.LeafOwners()
	fixed := 0
	err := polynomial.ForEachShardN(src, workers, func(_, _ int, s *polynomial.Set) error {
		n, err := scanForestPartition(s, owners, workers)
		if err != nil {
			return err
		}
		fixed += n
		return nil
	})
	if err != nil {
		return 0, err
	}
	return fixed, nil
}

// scanForestPartition checks one shard; see forestPartitionSource.
func scanForestPartition(s *polynomial.Set, owners map[polynomial.Var]abstraction.ForestLeaf, workers int) (int, error) {
	type runScan struct {
		fixed int
		err   error
	}
	bounds := polyRuns(s, workers)
	runs := make([]runScan, len(bounds)-1)
	parallel.ForEach(workers, len(runs), func(i int) {
		run := &runs[i]
		for pi := bounds[i]; pi < bounds[i+1]; pi++ {
			for _, m := range s.Polys[pi].Mons {
				hasLeaf, err := forestLeafCheck(m, owners, s.Keys[pi], s.Names)
				if err != nil {
					run.err = err
					return
				}
				if !hasLeaf {
					run.fixed++
				}
			}
		}
	})

	fixed := 0
	for _, run := range runs {
		if run.err != nil {
			return 0, run.err
		}
		fixed += run.fixed
	}
	return fixed, nil
}

// forestLeafCheck reports whether the monomial contains a forest leaf,
// rejecting a second leaf: of the same tree with a MultiVarError (the
// single-tree DP's own precondition), of a different tree with a
// CrossTreeError (additivity across trees would break). The first
// offending term pair in term order wins, deterministically.
func forestLeafCheck(m polynomial.Monomial, owners map[polynomial.Var]abstraction.ForestLeaf, key string, names *polynomial.Names) (bool, error) {
	first := -1
	for _, t := range m.Terms {
		o, ok := owners[t.Var]
		if !ok {
			continue
		}
		if first < 0 {
			first = o.Tree
			continue
		}
		if o.Tree == first {
			// The error the single-tree scan reports for this monomial.
			return false, &MultiVarError{Key: key, Mono: monoString(m, names)}
		}
		return false, &CrossTreeError{Key: key, Mono: monoString(m, names), TreeA: first, TreeB: o.Tree}
	}
	return first >= 0, nil
}
