package abstraction

import (
	"fmt"
	"slices"
)

// Refine replaces a cut node by its children — one step toward the leaves
// in the cut lattice, regaining degrees of freedom at the cost of
// provenance size. Refining a leaf is an error.
func (c Cut) Refine(node NodeID) (Cut, error) {
	if c.Tree == nil {
		return Cut{}, fmt.Errorf("abstraction: cut has no tree")
	}
	n := c.Tree.Node(node)
	if len(n.Children) == 0 {
		return Cut{}, fmt.Errorf("abstraction: cannot refine leaf %q", n.Name)
	}
	i, found := slices.BinarySearch(c.Nodes, node)
	if !found {
		return Cut{}, fmt.Errorf("abstraction: node %q is not in the cut", n.Name)
	}
	return NewCut(c.Tree, append(slices.Delete(slices.Clone(c.Nodes), i, i+1), n.Children...)...)
}

// Coarsen replaces every cut node below the given inner node by that node —
// one step toward the root, trading degrees of freedom for size. It is an
// error if node is already in the cut, is a strict descendant of a cut node,
// or is the ancestor of no cut node.
func (c Cut) Coarsen(node NodeID) (Cut, error) {
	if c.Tree == nil {
		return Cut{}, fmt.Errorf("abstraction: cut has no tree")
	}
	n := c.Tree.Node(node)
	if up := c.CoverOf(node); up == node {
		return Cut{}, fmt.Errorf("abstraction: node %q is already in the cut", n.Name)
	} else if up != NoNode {
		return Cut{}, fmt.Errorf("abstraction: node %q lies below the cut node %q", n.Name, c.Tree.Node(up).Name)
	}
	nodes := slices.DeleteFunc(slices.Clone(c.Nodes), func(id NodeID) bool { return c.Tree.IsAncestorOrSelf(node, id) })
	if len(nodes) == len(c.Nodes) {
		return Cut{}, fmt.Errorf("abstraction: no cut nodes below %q", n.Name)
	}
	return NewCut(c.Tree, append(nodes, node)...)
}
