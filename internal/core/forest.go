package core

import (
	"fmt"
	"io"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// DefaultForestRounds bounds the coordinate-descent iterations of
// ForestDescentSource when the caller passes rounds <= 0.
const DefaultForestRounds = 8

// reduceSource applies cuts to src, producing a reduced source of the same
// underlying representation: an in-memory Set yields an in-memory Set, a
// ShardedSet yields a ShardedSet under the same options (so intermediate
// reduced sets spill past the same memory budget). The dispatch unwraps
// context wrappers so wrapping never changes which algorithm variant runs —
// but the streaming pass itself pulls through the wrapped src, so a
// canceled context still stops the pass at the next shard boundary.
// Release the result with closeSource.
func reduceSource(src polynomial.SetSource, workers int, cuts ...abstraction.Cut) (polynomial.SetSource, error) {
	switch s := polynomial.Unwrap(src).(type) {
	case *polynomial.ShardedSet:
		b := polynomial.NewShardBuilder(s.Names(), s.Options())
		defer b.Discard() // release partial spill files on any error path
		if err := abstraction.ApplySource(src, b, workers, cuts...); err != nil {
			return nil, err
		}
		return b.Finish()
	case *polynomial.Set:
		// Direct remap — no second copy through a sink. An in-memory set is
		// a single shard, so the wrapper's per-shard cancellation check
		// would fire at most once anyway; skipping it costs nothing.
		return abstraction.Apply(s, workers, cuts...), nil
	default:
		out := polynomial.NewSet(src.Namespace())
		if err := abstraction.ApplySource(src, out, workers, cuts...); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// closeSource releases a source whose representation holds resources
// (spill files); in-memory sets are left to the garbage collector.
func closeSource(src polynomial.SetSource) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// ForestDescentSource compresses under several abstraction trees (one cut
// each) over any SetSource. The joint problem is NP-hard in general (the
// compressed size is no longer additive across trees), so we use exact
// coordinate descent: trees start at their coarsest cut (the jointly
// minimal size — coarsening any tree can only merge more monomials), then
// each round re-optimizes one tree at a time with the single-tree DP
// against the provenance reduced by the other trees' current cuts. Every
// step keeps the bound satisfied and never decreases the per-tree variable
// count, so the total variable count is monotone and the procedure
// converges; rounds caps the number of passes (DefaultForestRounds if
// <= 0). Reduction, indexing and the DP all stream shard-at-a-time through
// the SetSource seam, so the same code serves in-memory sets and spilling
// sharded sets.
//
// With workers > 1, each tree's reduction, signature indexing and DP
// shard over the pool, but the adoption walk itself is the sequential
// one: one tree at a time against the live cuts, at most one reduced set
// resident. (An earlier revision speculatively reduced every tree against
// the round-start cuts in parallel; the speculative candidates were
// discarded whenever an earlier tree changed its cut, which made worker
// counts > 1 allocate several times the sequential walk for no wall-clock
// gain once the inner passes were already parallel.) Every
// sub-computation is deterministic, so cuts and sizes are bit-identical
// for every source representation and worker count, including the
// sequential workers <= 1 path.
func ForestDescentSource(src polynomial.SetSource, trees abstraction.Forest, bound int, rounds int, workers int) (*Result, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: empty forest")
	}
	if err := trees.Validate(); err != nil {
		return nil, err
	}
	if rounds <= 0 {
		rounds = DefaultForestRounds
	}
	workers = parallel.Normalize(workers)

	// Feasibility check at the coarsest point.
	cuts := make([]abstraction.Cut, len(trees))
	for i, t := range trees {
		cuts[i] = t.RootCut()
	}
	coarsest, err := reduceSource(src, workers, cuts...)
	if err != nil {
		return nil, err
	}
	coarsestSize := coarsest.Size()
	closeSource(coarsest)
	if coarsestSize > bound {
		return nil, &InfeasibleError{Bound: bound, MinAchievable: coarsestSize}
	}

	othersOf := func(cuts []abstraction.Cut, i int) []abstraction.Cut {
		others := make([]abstraction.Cut, 0, len(trees)-1)
		for j, c := range cuts {
			if j != i {
				others = append(others, c)
			}
		}
		return others
	}

	for round := 0; round < rounds; round++ {
		changed := false
		for i, t := range trees {
			// Reduce the set by every other tree's current cut.
			reduced, err := reduceSource(src, workers, othersOf(cuts, i)...)
			var res *Result
			if err == nil {
				res, err = DPSingleTreeSource(reduced, t, bound, workers)
			}
			if err != nil {
				// The current cut for tree i is always feasible on the
				// reduced set, so DP cannot fail here; treat failure as a
				// hard error.
				if reduced != nil {
					closeSource(reduced)
				}
				return nil, fmt.Errorf("core: forest descent on tree %d: %w", i, err)
			}
			if !res.Cuts[0].Equal(cuts[i]) {
				// Only adopt strict improvements (more vars, or same vars
				// and smaller size) to guarantee monotone convergence.
				oldVars := cuts[i].NumVars()
				newVars := res.Cuts[0].NumVars()
				adopt := newVars > oldVars
				if !adopt && newVars == oldVars {
					old, err := reduceSource(reduced, workers, cuts[i])
					if err != nil {
						closeSource(reduced)
						return nil, err
					}
					adopt = res.Size < old.Size()
					closeSource(old)
				}
				if adopt {
					cuts[i] = res.Cuts[0]
					changed = true
				}
			}
			closeSource(reduced)
		}
		if !changed {
			break
		}
	}

	final, err := reduceSource(src, workers, cuts...)
	if err != nil {
		return nil, err
	}
	r := &Result{Cuts: cuts, Size: final.Size()}
	closeSource(final)
	fillResultFrom(r, src.Size(), src.UsedVars())
	return r, nil
}

// ExhaustiveForest enumerates every combination of cuts across the forest —
// a testing oracle for ForestDescentSource on small inputs. It maximizes the total
// number of cut nodes subject to the bound, breaking ties toward smaller
// size. The combination count is the product of per-tree cut counts and must
// not exceed MaxExhaustiveCuts.
func ExhaustiveForest(set *polynomial.Set, trees abstraction.Forest, bound int) (*Result, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: empty forest")
	}
	if err := trees.Validate(); err != nil {
		return nil, err
	}
	total := 1
	for _, t := range trees {
		total *= t.CountCuts()
		if total > MaxExhaustiveCuts {
			return nil, fmt.Errorf("core: forest has more than %d cut combinations", MaxExhaustiveCuts)
		}
	}
	perTree := make([][]abstraction.Cut, len(trees))
	for i, t := range trees {
		t.EnumerateCuts(func(c abstraction.Cut) bool {
			perTree[i] = append(perTree[i], c)
			return true
		})
	}
	var (
		found    bool
		best     []abstraction.Cut
		bestVars int
		bestSize int
		minSize  = int(inf)
	)
	combo := make([]abstraction.Cut, len(trees))
	var rec func(i int)
	rec = func(i int) {
		if i == len(trees) {
			applied := abstraction.Apply(set, 1, combo...)
			size := applied.Size()
			if size < minSize {
				minSize = size
			}
			if size > bound {
				return
			}
			vars := 0
			for _, c := range combo {
				vars += c.NumVars()
			}
			if !found || vars > bestVars || (vars == bestVars && size < bestSize) {
				found = true
				best = append([]abstraction.Cut(nil), combo...)
				bestVars = vars
				bestSize = size
			}
			return
		}
		for _, c := range perTree[i] {
			combo[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	if !found {
		return nil, &InfeasibleError{Bound: bound, MinAchievable: minSize}
	}
	r := &Result{Cuts: best, Size: bestSize}
	fillResult(r, set)
	return r, nil
}

// SizeOfCuts returns the provenance size after applying the given cuts —
// a convenience used by the demo CLI's "under the hood" view.
func SizeOfCuts(set *polynomial.Set, cuts ...abstraction.Cut) int {
	return abstraction.Apply(set, 1, cuts...).Size()
}
