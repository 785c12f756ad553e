// Package abstraction implements abstraction trees: ontology-like trees over
// provenance variables that guide and restrict variable grouping (§2 of the
// paper). Leaves are provenance variables; inner nodes are candidate
// meta-variables. An abstraction is a cut in the tree — an antichain
// separating the root from all leaves: every leaf below a chosen node is
// replaced by that node's meta-variable.
package abstraction

import (
	"fmt"
	"slices"
	"strings"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// NodeID identifies a node within its Tree. The root is always node 0.
type NodeID int32

// NoNode is the sentinel "no node" value.
const NoNode NodeID = -1

// Node is a single abstraction-tree node. A node with no children is a leaf
// and corresponds to a provenance variable; an inner node corresponds to the
// meta-variable that replaces its descendant leaves when it is chosen in a
// cut.
type Node struct {
	ID       NodeID
	Name     string
	Var      polynomial.Var // interned in the tree's namespace
	Parent   NodeID         // NoNode for the root
	Children []NodeID
}

// Tree is an abstraction tree over variables interned in Names. Construct
// with NewTree and AddChild/AddPath; the tree is usable at any point (a node
// is a leaf exactly while it has no children).
type Tree struct {
	// Names is the variable namespace shared with the provenance
	// polynomials the tree abstracts.
	Names *polynomial.Names

	nodes  []Node
	byName map[string]NodeID
	// byVar[v] is the node bound to Var v, leaf or inner, and NoNode for
	// every other Var below its length. AddChild extends it as nodes are
	// added, so trees shared between goroutines only ever read it.
	byVar []NodeID
}

// NewTree creates a tree with a single root node named rootName, interning
// node names as variables in names.
func NewTree(rootName string, names *polynomial.Names) *Tree {
	t := &Tree{Names: names, byName: make(map[string]NodeID)}
	t.addNode(rootName, NoNode)
	return t
}

// addNode appends a node and enters it in both lookups.
func (t *Tree) addNode(name string, parent NodeID) NodeID {
	id, v := NodeID(len(t.nodes)), t.Names.Var(name)
	t.nodes = append(t.nodes, Node{ID: id, Name: name, Var: v, Parent: parent})
	t.byName[name] = id
	for int(v) >= len(t.byVar) {
		t.byVar = append(t.byVar, NoNode)
	}
	t.byVar[v] = id
	return id
}

// Root returns the root node id (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.nodes) }

// Node returns the node with the given id.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// ByName returns the node named name, or NoNode.
func (t *Tree) ByName(name string) NodeID {
	if id, ok := t.byName[name]; ok {
		return id
	}
	return NoNode
}

// AddChild adds a child named name under parent and returns its id.
// Node names must be unique within the tree.
func (t *Tree) AddChild(parent NodeID, name string) (NodeID, error) {
	if parent < 0 || int(parent) >= len(t.nodes) {
		return NoNode, fmt.Errorf("abstraction: parent node %d does not exist", parent)
	}
	if _, dup := t.byName[name]; dup {
		return NoNode, fmt.Errorf("abstraction: duplicate node name %q", name)
	}
	id := t.addNode(name, parent)
	t.nodes[parent].Children = append(t.nodes[parent].Children, id)
	return id, nil
}

// MustAddChild is AddChild that panics on error; for static tree literals.
func (t *Tree) MustAddChild(parent NodeID, name string) NodeID {
	id, err := t.AddChild(parent, name)
	if err != nil {
		panic(err)
	}
	return id
}

// AddPath ensures the chain root→path[0]→…→path[n-1] exists, creating
// missing nodes, and returns the final node. Existing nodes are reused, but
// it is an error if an existing node on the path has a different parent than
// the path implies.
func (t *Tree) AddPath(path ...string) (NodeID, error) {
	cur := t.Root()
	for _, name := range path {
		if id, ok := t.byName[name]; ok {
			if t.nodes[id].Parent != cur {
				return NoNode, fmt.Errorf("abstraction: node %q already exists under %q, not %q",
					name, t.nameOf(t.nodes[id].Parent), t.nodes[cur].Name)
			}
			cur = id
			continue
		}
		id, err := t.AddChild(cur, name)
		if err != nil {
			return NoNode, err
		}
		cur = id
	}
	return cur, nil
}

func (t *Tree) nameOf(id NodeID) string {
	if id == NoNode {
		return "<none>"
	}
	return t.nodes[id].Name
}

// FromPaths builds a tree from root-to-leaf paths (each path excludes the
// root name). Intermediate nodes are shared by name.
func FromPaths(rootName string, names *polynomial.Names, paths ...[]string) (*Tree, error) {
	t := NewTree(rootName, names)
	for _, p := range paths {
		if _, err := t.AddPath(p...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// IsLeaf reports whether id currently has no children.
func (t *Tree) IsLeaf(id NodeID) bool { return len(t.nodes[id].Children) == 0 }

// Leaves returns all leaf ids in depth-first order.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	t.Walk(func(n *Node) bool {
		if len(n.Children) == 0 {
			out = append(out, n.ID)
		}
		return true
	})
	return out
}

// LeafVars returns the variables bound to the leaves, in depth-first order.
func (t *Tree) LeafVars() []polynomial.Var {
	ls := t.Leaves()
	vs := make([]polynomial.Var, len(ls))
	for i, id := range ls {
		vs[i] = t.nodes[id].Var
	}
	return vs
}

// LeavesUnder returns the leaf ids in the subtree rooted at id, depth-first.
func (t *Tree) LeavesUnder(id NodeID) []NodeID {
	var out []NodeID
	var rec func(NodeID)
	rec = func(v NodeID) {
		if len(t.nodes[v].Children) == 0 {
			out = append(out, v)
			return
		}
		for _, c := range t.nodes[v].Children {
			rec(c)
		}
	}
	rec(id)
	return out
}

// Walk visits nodes in preorder; the visitor returns false to prune the
// subtree below the visited node.
func (t *Tree) Walk(visit func(n *Node) bool) {
	var rec func(NodeID)
	rec = func(id NodeID) {
		n := &t.nodes[id]
		if !visit(n) {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root())
}

// Postorder returns all node ids so that children precede parents.
func (t *Tree) Postorder() []NodeID {
	out := make([]NodeID, 0, len(t.nodes))
	var rec func(NodeID)
	rec = func(id NodeID) {
		for _, c := range t.nodes[id].Children {
			rec(c)
		}
		out = append(out, id)
	}
	rec(t.Root())
	return out
}

// Depth returns the number of edges from the root to id.
func (t *Tree) Depth(id NodeID) int {
	d := 0
	for t.nodes[id].Parent != NoNode {
		id = t.nodes[id].Parent
		d++
	}
	return d
}

// IsAncestorOrSelf reports whether a is an ancestor of b or a == b.
func (t *Tree) IsAncestorOrSelf(a, b NodeID) bool {
	for b != NoNode {
		if a == b {
			return true
		}
		b = t.nodes[b].Parent
	}
	return false
}

// NodeByVar returns the node bound to v, leaf or inner, or NoNode.
func (t *Tree) NodeByVar(v polynomial.Var) NodeID {
	if uint(v) < uint(len(t.byVar)) {
		return t.byVar[v]
	}
	return NoNode
}

// LeafByVar returns the leaf bound to v, or NoNode. Inner nodes are not
// considered even though they also own a Var.
func (t *Tree) LeafByVar(v polynomial.Var) NodeID {
	if id := t.NodeByVar(v); id != NoNode && len(t.nodes[id].Children) == 0 {
		return id
	}
	return NoNode
}

// Reached appends to dst, ascending and each once, the nodes that the cuts
// of t among cuts hold at or above a leaf bound to one of vars, and those
// bound to one of vars themselves: the groups a valuation of vars assigns
// into. The cost follows what vars reaches — the paths from its leaves to
// the root, each searched for in each cut — not the size of t or the cuts.
func (t *Tree) Reached(dst []NodeID, cuts []Cut, vars []polynomial.Var) []NodeID {
	// recent[id%32] == id+1: the walk up from an earlier leaf appended id,
	// and so every node above it. A miss only appends a node twice.
	var recent [32]NodeID
	for _, v := range vars {
		id := t.NodeByVar(v)
		if id != NoNode && len(t.nodes[id].Children) > 0 {
			dst = append(dst, id)
			continue
		}
		for ; id != NoNode && recent[id%32] != id+1; id = t.nodes[id].Parent {
			recent[id%32] = id + 1
			dst = append(dst, id)
		}
	}
	slices.Sort(dst)
	above := slices.Compact(dst)
	// Nodes ascend in above as in a cut, so each cut is searched from where
	// the last node was found; a held node is kept complemented (negative).
	for _, c := range cuts {
		if c.Tree != t {
			continue
		}
		nodes := c.Nodes
		for i, id := range above {
			if id < 0 {
				continue
			}
			j, held := slices.BinarySearch(nodes, id)
			if nodes = nodes[j:]; held {
				above[i] = ^id
			}
		}
	}
	dst = above[:0]
	for _, id := range above {
		if id < 0 {
			dst = append(dst, ^id)
		}
	}
	return dst
}

// String renders the tree with indentation, e.g. for "look under the hood"
// output in the demo CLI.
func (t *Tree) String() string {
	var sb strings.Builder
	var rec func(NodeID, int)
	rec = func(id NodeID, depth int) {
		n := &t.nodes[id]
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Name)
		sb.WriteString("\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root(), 0)
	return sb.String()
}

// Validate checks structural invariants (acyclic parent links, children
// consistency, unique names). Trees built through the API always validate;
// this guards trees decoded from external input.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("abstraction: empty tree")
	}
	seen := make(map[string]bool, len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("abstraction: node %d has inconsistent id %d", i, n.ID)
		}
		if seen[n.Name] {
			return fmt.Errorf("abstraction: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if i == 0 {
			if n.Parent != NoNode {
				return fmt.Errorf("abstraction: root has parent %d", n.Parent)
			}
		} else {
			if n.Parent < 0 || int(n.Parent) >= len(t.nodes) || n.Parent == n.ID {
				return fmt.Errorf("abstraction: node %q has invalid parent %d", n.Name, n.Parent)
			}
			found := false
			for _, c := range t.nodes[n.Parent].Children {
				if c == n.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("abstraction: node %q missing from its parent's children", n.Name)
			}
		}
	}
	// Reachability: every node must be reachable from the root.
	reached := 0
	t.Walk(func(*Node) bool { reached++; return true })
	if reached != len(t.nodes) {
		return fmt.Errorf("abstraction: %d of %d nodes unreachable from root", len(t.nodes)-reached, len(t.nodes))
	}
	return nil
}

// Forest is an ordered list of abstraction trees over disjoint leaf
// variables (one tree per "dimension" of the instrumentation, e.g. plans and
// months in the running example).
type Forest []*Tree

// Validate checks each tree and the pairwise disjointness of leaf variables.
func (f Forest) Validate() error {
	seen := make(map[polynomial.Var]int)
	for i, t := range f {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
		for _, v := range t.LeafVars() {
			if j, dup := seen[v]; dup {
				return fmt.Errorf("abstraction: leaf variable %q appears in trees %d and %d",
					t.Names.Name(v), j, i)
			}
			seen[v] = i
		}
	}
	return nil
}

// ForestLeaf locates a leaf within a forest: the index of the owning tree
// and the leaf's node id in that tree.
type ForestLeaf struct {
	Tree int
	Node NodeID
}

// LeafOwners returns a lookup from leaf variable to its owning tree and
// leaf node. A validated forest has pairwise-disjoint leaf variables, so
// the lookup is unambiguous; on an invalid forest the last tree wins.
func (f Forest) LeafOwners() map[polynomial.Var]ForestLeaf {
	m := make(map[polynomial.Var]ForestLeaf)
	for i, t := range f {
		for _, id := range t.Leaves() {
			m[t.Node(id).Var] = ForestLeaf{Tree: i, Node: id}
		}
	}
	return m
}
