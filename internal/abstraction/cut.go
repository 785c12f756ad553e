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
// polynomial set, returning the compressed set: ApplySource into a fresh
// *Set, so each polynomial is merged by ApplySource's rule (on 64-bit keys
// where it fits) into an exactly-sized copy sharing no storage with s or
// with its siblings, bit-identical for every worker count.
func Apply(s *polynomial.Set, workers int, cuts ...Cut) *polynomial.Set {
	out := polynomial.NewSet(s.Names)
	out.Grow(s.Len())
	_ = ApplySource(s, out, workers, cuts...) // a *Set fails neither as a source nor as a sink
	return out
}

// cutTable combines the cuts' substitutions into one dense table indexed
// by Var (identity where no cut applies; variables beyond it are left as
// they are), each leaf mapped to the cut node covering it.
func cutTable(cuts []Cut) []polynomial.Var {
	var table []polynomial.Var
	for _, c := range cuts {
		for _, id := range c.Nodes {
			to := c.Tree.Node(id).Var
			for _, leaf := range c.Tree.LeavesUnder(id) {
				from := int(c.Tree.Node(leaf).Var)
				for v := len(table); v <= from; v++ {
					table = append(table, polynomial.Var(v))
				}
				table[from] = to
			}
		}
	}
	return table
}

// ApplySource is the one streaming implementation behind every cut
// application: polynomial.MapSource over the cuts' substitution as a dense
// table, src shard by shard into sink in src's order. A polynomial never
// spans shards and is merged by one worker in its own canonical order — on
// 64-bit keys when every substituted monomial has at most two distinct
// variables, each with exponent 1 (every SUM instance), through an
// Accumulator otherwise, with the same summation order either way — so
// whatever the source and sink, the emitted polynomials are bit-identical
// for every worker count. With one worker a *PackedSet or *ShardBuilder
// sink gets the mapper's reused scratch through its copying Add (the
// builder sealing the same shards as ever); any other sink (*Set, which
// keeps what it is given) gets each polynomial in exactly-sized storage of
// its own, as every sink does with more workers.
func ApplySource(src polynomial.SetSource, sink polynomial.SetSink, workers int, cuts ...Cut) error {
	return polynomial.MapSource(src, sink, cutTable(cuts), workers)
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
