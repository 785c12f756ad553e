// Package core implements COBRA's provenance-compression algorithms — the
// primary contribution of the paper. Given a multiset of provenance
// polynomials, an abstraction tree (or forest) over (a subset of) their
// variables, and a bound B on the number of monomials, it finds a cut of the
// tree that brings the provenance size below B while maximizing the number
// of distinct variables (the degrees of freedom left for hypothetical
// reasoning).
//
// For a single abstraction tree the problem is solved exactly in polynomial
// time by a bottom-up dynamic program (DPSingleTreeSource), as described in §2 of
// the paper ("the algorithm traverses the abstraction tree in a bottom-up
// fashion, and using dynamic programming, computes an abstraction for the
// sub-tree rooted by each one of the inner nodes"). Exhaustive enumeration
// (Exhaustive) serves as a testing oracle, Greedy as a baseline for
// ablation. A forest whose monomials each hold leaves of at most one tree
// is solved exactly by composing the per-tree curves (FrontierForestSource);
// ForestDescentSource extends the solution heuristically to forests whose
// trees a monomial couples.
package core

import (
	"errors"
	"fmt"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// ErrInfeasible is wrapped by InfeasibleError; use errors.Is to test.
var ErrInfeasible = errors.New("core: bound not achievable by any abstraction")

// InfeasibleError reports that no cut of the tree(s) reaches the requested
// bound; MinAchievable is the smallest provenance size any abstraction can
// reach (the all-roots cut).
type InfeasibleError struct {
	Bound         int
	MinAchievable int
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("core: bound %d not achievable; the coarsest abstraction still has %d monomials",
		e.Bound, e.MinAchievable)
}

func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// MultiVarError reports a monomial containing more than one leaf of the same
// abstraction tree, violating the single-tree assumption under which the DP
// is exact (§2: "a monomial may still consist of multiple variables, but the
// abstraction may apply to at most one of them").
type MultiVarError struct {
	Key  string // group key of the offending polynomial
	Mono string // rendering of the offending monomial
}

func (e *MultiVarError) Error() string {
	return fmt.Sprintf("core: monomial %q in group %q contains more than one variable of the same abstraction tree", e.Mono, e.Key)
}

// Result describes a chosen abstraction and its effect.
type Result struct {
	// Cuts holds one cut per tree, in forest order.
	Cuts []abstraction.Cut
	// Size is the provenance size (total monomials) after applying Cuts.
	Size int
	// NumMeta is the total number of meta-variables the cuts define
	// (Σ |cut|) — the expressiveness the optimizer maximizes. Cut nodes
	// whose leaves never occur in the provenance still count: the
	// abstraction defines them as assignable names.
	NumMeta int
	// UsedMeta counts the cut nodes that actually occur in the compressed
	// provenance (at least one abstracted leaf appears in some monomial).
	UsedMeta int
	// OriginalSize and OriginalVars describe the input provenance.
	OriginalSize int
	OriginalVars int
}

// Apply materializes the compressed provenance set.
func (r *Result) Apply(s *polynomial.Set) *polynomial.Set {
	return abstraction.Apply(s, 1, r.Cuts...)
}

// CompressionRatio returns Size/OriginalSize.
func (r *Result) CompressionRatio() float64 {
	if r.OriginalSize == 0 {
		return 1
	}
	return float64(r.Size) / float64(r.OriginalSize)
}

// CompressSource solves a compression instance over any SetSource: exact
// DP for a single tree; for a forest, the exact optimum when the forest is
// partitioned — every monomial holds leaves of at most one tree — and
// coordinate descent when it is coupled. A forest is first swept at the
// bound (FrontierSweepSource): its partition check stops at the first
// monomial that couples two trees (or holds two leaves of one), which
// sends the forest to descent, and a partitioned forest's answer is the
// sweep's. workers caps the goroutines the solver may use (<= 1 keeps
// every code path sequential); the result is identical for every value —
// parallelism only shards deterministic work (signature indexing, cut
// application).
func CompressSource(src polynomial.SetSource, trees abstraction.Forest, bound int, workers int) (*Result, error) {
	switch len(trees) {
	case 0:
		return nil, errors.New("core: no abstraction trees given")
	case 1:
		return DPSingleTreeSource(src, trees[0], bound, workers)
	}
	answers, err := FrontierSweepSource(src, trees, []int{bound}, workers)
	switch {
	case errors.As(err, new(*CrossTreeError)) || errors.As(err, new(*MultiVarError)):
		return ForestDescentSource(src, trees, bound, 0, workers)
	case err != nil:
		return nil, err
	}
	return answers[0].Result, answers[0].Err
}

const inf = int64(1) << 60

func fillResult(r *Result, set *polynomial.Set) {
	fillResultFrom(r, set.Size(), set.UsedVars())
}

// fillResultFrom fills the input-set statistics from a size and used-vars
// summary — all a Result needs from the input, whether it was materialized
// or streamed shard-at-a-time.
func fillResultFrom(r *Result, size int, used []polynomial.Var) {
	r.OriginalSize = size
	r.OriginalVars = len(used)
	r.NumMeta = 0
	for _, c := range r.Cuts {
		r.NumMeta += c.NumVars()
	}
	// UsedMeta: cut nodes whose meta-variable occurs after compression.
	// The leaves occurring in the input determine this without applying
	// the cuts: a cut node is used iff one of its leaves occurs.
	occurring := make(map[polynomial.Var]bool)
	for _, v := range used {
		occurring[v] = true
	}
	r.UsedMeta = 0
	for _, c := range r.Cuts {
		groups := c.GroupedLeaves()
		for i := range c.Nodes {
			for _, leaf := range groups[i] {
				if occurring[leaf] {
					r.UsedMeta++
					break
				}
			}
		}
	}
}
