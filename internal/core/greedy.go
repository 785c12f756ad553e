package core

import (
	"fmt"
	"sort"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Greedy is a baseline compressor for the ablation study (experiment E7).
// Starting from the identity (leaf) cut, it repeatedly applies the collapse
// that saves the most monomials per meta-variable lost, until the bound is
// met. A collapse replaces all current cut nodes below some inner node u by
// u itself. Greedy is not optimal in general — DPSingleTreeSource is — but it is
// simple, fast, and the natural straw-man.
func Greedy(set *polynomial.Set, tree *abstraction.Tree, bound int) (*Result, error) {
	if bound < 0 {
		return nil, errNegativeBound(bound)
	}
	idx, err := buildIndex(set, tree)
	if err != nil {
		return nil, err
	}

	inCut := make(map[abstraction.NodeID]bool)
	for _, l := range tree.Leaves() {
		inCut[l] = true
	}
	size := idx.cutSize(abstraction.Cut{Tree: tree, Nodes: keys(inCut)})

	for size > int64(bound) {
		type move struct {
			node     abstraction.NodeID
			saved    int64 // monomials saved
			varsLost int   // meta-variables lost (#descendant cut nodes - 1)
		}
		var best *move
		// Candidates: every inner node u with no cut node above it. The
		// descendant cut nodes of u then cover exactly u's leaves, so
		// replacing them by u is a valid cut transformation.
		for id := 0; id < tree.Len(); id++ {
			u := abstraction.NodeID(id)
			if tree.IsLeaf(u) || inCut[u] {
				continue
			}
			if hasCutAncestor(tree, inCut, u) {
				continue
			}
			desc := cutDescendants(tree, inCut, u)
			if len(desc) == 0 {
				continue
			}
			var below int64
			for _, d := range desc {
				below += idx.distinct[d]
			}
			m := move{node: u, saved: below - idx.distinct[u], varsLost: len(desc) - 1}
			if best == nil || betterMove(m.saved, m.varsLost, best.saved, best.varsLost) {
				mm := m
				best = &mm
			}
		}
		if best == nil {
			// Cut is already {root}; nothing left to collapse.
			return nil, &InfeasibleError{Bound: bound, MinAchievable: int(size)}
		}
		for _, d := range cutDescendants(tree, inCut, best.node) {
			delete(inCut, d)
		}
		inCut[best.node] = true
		size -= best.saved
	}

	cut, err := abstraction.NewCut(tree, keys(inCut)...)
	if err != nil {
		return nil, fmt.Errorf("core: internal error, greedy produced invalid cut: %w", err)
	}
	r := &Result{Cuts: []abstraction.Cut{cut}, Size: int(size)}
	fillResult(r, set)
	return r, nil
}

// betterMove prefers the higher monomials-saved per meta-variable-lost
// ratio; free moves (varsLost == 0) dominate, and ties prefer the SMALLER
// move (fewest variables lost) so the walk stays as fine-grained as the
// bound allows, falling back to larger savings.
func betterMove(saved int64, lost int, bSaved int64, bLost int) bool {
	// Compare saved/max(lost,ε) as cross products: saved*bLost' > bSaved*lost'.
	l, bl := int64(lost), int64(bLost)
	if l == 0 {
		l = 1
		saved = saved * 1000 // strongly prefer free moves
	}
	if bl == 0 {
		bl = 1
		bSaved = bSaved * 1000
	}
	lhs, rhs := saved*bl, bSaved*l
	if lhs != rhs {
		return lhs > rhs
	}
	if lost != bLost {
		return lost < bLost
	}
	return saved > bSaved
}

func hasCutAncestor(t *abstraction.Tree, inCut map[abstraction.NodeID]bool, u abstraction.NodeID) bool {
	for p := t.Node(u).Parent; p != abstraction.NoNode; p = t.Node(p).Parent {
		if inCut[p] {
			return true
		}
	}
	// A cut node AT u also rules u out as a collapse target, handled by caller.
	return false
}

func cutDescendants(t *abstraction.Tree, inCut map[abstraction.NodeID]bool, u abstraction.NodeID) []abstraction.NodeID {
	var out []abstraction.NodeID
	var rec func(abstraction.NodeID)
	rec = func(v abstraction.NodeID) {
		if inCut[v] {
			out = append(out, v)
			return
		}
		for _, c := range t.Node(v).Children {
			rec(c)
		}
	}
	for _, c := range t.Node(u).Children {
		rec(c)
	}
	return out
}

func keys(m map[abstraction.NodeID]bool) []abstraction.NodeID {
	out := make([]abstraction.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
