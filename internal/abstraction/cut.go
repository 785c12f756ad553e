package abstraction

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Cut is an abstraction: an antichain of tree nodes separating the root from
// all leaves. Every leaf is covered by exactly one cut node (an ancestor or
// the leaf itself); all leaves below a cut node are replaced by that node's
// meta-variable.
type Cut struct {
	Tree  *Tree
	Nodes []NodeID // sorted, unique
}

// NewCut builds a cut from node ids and validates it.
func NewCut(t *Tree, nodes ...NodeID) (Cut, error) {
	c := Cut{Tree: t, Nodes: append([]NodeID(nil), nodes...)}
	sort.Slice(c.Nodes, func(i, j int) bool { return c.Nodes[i] < c.Nodes[j] })
	if err := c.Validate(); err != nil {
		return Cut{}, err
	}
	return c, nil
}

// CutOf builds a cut from node names, e.g. the paper's
// S1 = {Business, Special, Standard}.
func (t *Tree) CutOf(names ...string) (Cut, error) {
	ids := make([]NodeID, 0, len(names))
	for _, n := range names {
		id := t.ByName(n)
		if id == NoNode {
			return Cut{}, fmt.Errorf("abstraction: no node named %q in tree %q", n, t.Node(t.Root()).Name)
		}
		ids = append(ids, id)
	}
	return NewCut(t, ids...)
}

// LeafCut returns the finest abstraction: every leaf is its own cut node
// (the identity — no compression, maximal degrees of freedom).
func (t *Tree) LeafCut() Cut {
	c := Cut{Tree: t, Nodes: t.Leaves()}
	sort.Slice(c.Nodes, func(i, j int) bool { return c.Nodes[i] < c.Nodes[j] })
	return c
}

// RootCut returns the coarsest abstraction: a single meta-variable for the
// whole tree (the paper's S5 = {Plans}).
func (t *Tree) RootCut() Cut {
	return Cut{Tree: t, Nodes: []NodeID{t.Root()}}
}

// Validate checks that the nodes form an antichain covering every leaf.
func (c Cut) Validate() error {
	if c.Tree == nil {
		return fmt.Errorf("abstraction: cut has no tree")
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("abstraction: empty cut")
	}
	for i, id := range c.Nodes {
		if id < 0 || int(id) >= c.Tree.Len() {
			return fmt.Errorf("abstraction: cut node %d does not exist", id)
		}
		if i > 0 && c.Nodes[i-1] >= id {
			return fmt.Errorf("abstraction: cut nodes out of order or repeated at %q", c.Tree.Node(id).Name)
		}
	}
	// Antichain: no cut node may be a strict ancestor of another.
	for _, id := range c.Nodes {
		if p := c.CoverOf(c.Tree.Node(id).Parent); p != NoNode {
			return fmt.Errorf("abstraction: cut nodes %q and %q are related (not an antichain)",
				c.Tree.Node(p).Name, c.Tree.Node(id).Name)
		}
	}
	// Coverage: every leaf must have an ancestor-or-self in the cut.
	for _, leaf := range c.Tree.Leaves() {
		if c.CoverOf(leaf) == NoNode {
			return fmt.Errorf("abstraction: leaf %q not covered by the cut", c.Tree.Node(leaf).Name)
		}
	}
	return nil
}

// NumVars returns the number of meta-variables the cut defines — the
// expressiveness measure maximized by the optimization problem.
func (c Cut) NumVars() int { return len(c.Nodes) }

// IsIdentity reports whether the cut is the leaf cut (no grouping at all).
func (c Cut) IsIdentity() bool {
	for _, id := range c.Nodes {
		if !c.Tree.IsLeaf(id) {
			return false
		}
	}
	return true
}

// CoverOf returns the cut node at or above the given node — for a leaf, the
// node that covers it — or NoNode. Nodes is sorted, so each step of the walk
// is a binary search and nothing is built per call.
func (c Cut) CoverOf(node NodeID) NodeID {
	for v := node; v != NoNode; v = c.Tree.Node(v).Parent {
		if _, ok := slices.BinarySearch(c.Nodes, v); ok {
			return v
		}
	}
	return NoNode
}

// GroupedLeaves returns, per cut node (in Nodes order), the leaf variables
// it abstracts — what the demo UI shows on the meta-variable assignment
// screen (Figure 5).
func (c Cut) GroupedLeaves() [][]polynomial.Var {
	out := make([][]polynomial.Var, len(c.Nodes))
	for i, id := range c.Nodes {
		for _, leaf := range c.Tree.LeavesUnder(id) {
			out[i] = append(out[i], c.Tree.Node(leaf).Var)
		}
	}
	return out
}

// Names returns the cut node names in Nodes order.
func (c Cut) Names() []string {
	out := make([]string, len(c.Nodes))
	for i, id := range c.Nodes {
		out[i] = c.Tree.Node(id).Name
	}
	return out
}

// String renders the cut like the paper: "{Business, Special, Standard}".
func (c Cut) String() string {
	return "{" + strings.Join(c.Names(), ", ") + "}"
}

// Equal reports whether two cuts over the same tree pick the same nodes.
func (c Cut) Equal(o Cut) bool {
	if c.Tree != o.Tree || len(c.Nodes) != len(o.Nodes) {
		return false
	}
	for i := range c.Nodes {
		if c.Nodes[i] != o.Nodes[i] {
			return false
		}
	}
	return true
}

// Apply applies one or more cuts (over disjoint trees) to an in-memory
// polynomial set, returning the compressed set. Up to workers goroutines
// share the polynomials between them; each polynomial is substituted and
// merged sequentially, a merged coefficient being the left-to-right float64
// sum of its contributions in the polynomial's canonical order, so the
// compressed set is bit-identical for every worker count. It shares no
// storage with s and holds exactly its own size.
func Apply(s *polynomial.Set, workers int, cuts ...Cut) *polynomial.Set {
	return s.MapVarsN(cutMapping(cuts), workers)
}

// cutMapping combines the cuts' substitutions into one remap function: a
// dense table indexed by Var (identity where no cut applies, and beyond the
// largest leaf Var), each leaf mapped to the cut node covering it.
func cutMapping(cuts []Cut) func(polynomial.Var) polynomial.Var {
	var table []polynomial.Var
	for _, c := range cuts {
		for _, id := range c.Nodes {
			to := c.Tree.Node(id).Var
			for _, leaf := range c.Tree.LeavesUnder(id) {
				from := c.Tree.Node(leaf).Var
				for int(from) >= len(table) {
					table = append(table, polynomial.Var(len(table)))
				}
				table[from] = to
			}
		}
	}
	return func(v polynomial.Var) polynomial.Var {
		if uint(v) < uint(len(table)) {
			return table[v]
		}
		return v
	}
}

// ApplySource is the one streaming implementation behind every cut
// application: it remaps src shard-at-a-time (each shard through
// Set.MapVarsN, its polynomials spread over the workers) and feeds the
// compressed polynomials to sink in shard order. A polynomial never spans
// shards and is merged by one worker in its own canonical order, so
// whatever the source and sink — in-memory Set to Set, spilling ShardedSet
// to ShardBuilder, or any mix — the emitted polynomials are bit-identical
// for every worker count.
func ApplySource(src polynomial.SetSource, sink polynomial.SetSink, workers int, cuts ...Cut) error {
	f := cutMapping(cuts)
	return polynomial.ForEachShardN(src, workers, func(_, _ int, shard *polynomial.Set) error {
		mapped := shard.MapVarsN(f, workers)
		for i, key := range mapped.Keys {
			if err := sink.Add(key, mapped.Polys[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// EnumerateCuts yields every cut of the tree in a deterministic order,
// stopping early if yield returns false. The number of cuts can be
// exponential in the tree size; this is intended as a testing oracle and for
// the "look under the hood" demo mode on small trees.
func (t *Tree) EnumerateCuts(yield func(Cut) bool) {
	// cutsBelow(v) returns all antichains covering the leaves of v's subtree.
	var cutsBelow func(v NodeID) [][]NodeID
	cutsBelow = func(v NodeID) [][]NodeID {
		out := [][]NodeID{{v}}
		n := t.Node(v)
		if len(n.Children) == 0 {
			return out
		}
		// Cross product of children's cuts.
		combos := [][]NodeID{nil}
		for _, c := range n.Children {
			var next [][]NodeID
			for _, prefix := range combos {
				for _, cc := range cutsBelow(c) {
					merged := make([]NodeID, 0, len(prefix)+len(cc))
					merged = append(merged, prefix...)
					merged = append(merged, cc...)
					next = append(next, merged)
				}
			}
			combos = next
		}
		return append(out, combos...)
	}
	for _, nodes := range cutsBelow(t.Root()) {
		sorted := append([]NodeID(nil), nodes...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if !yield(Cut{Tree: t, Nodes: sorted}) {
			return
		}
	}
}

// CountCuts returns the number of distinct cuts of the tree, which the demo
// cites may be exponential ("there may still be exponentially many cuts").
func (t *Tree) CountCuts() int {
	var rec func(v NodeID) int
	rec = func(v NodeID) int {
		n := t.Node(v)
		if len(n.Children) == 0 {
			return 1
		}
		prod := 1
		for _, c := range n.Children {
			prod *= rec(c)
		}
		return 1 + prod
	}
	return rec(t.Root())
}
