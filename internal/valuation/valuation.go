// Package valuation implements hypothetical-reasoning valuations: assigning
// values to provenance (meta-)variables and evaluating provenance
// polynomials under them, quickly. It provides the induced default values
// for meta-variables (the average of the abstracted variables' values, as in
// the demo's Figure-5 screen), accuracy metrics comparing compressed against
// full provenance, and the assignment-speedup measurement the demo reports.
package valuation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Assignment is a sparse valuation of provenance variables. Unassigned
// variables default to 1, the identity for the multiplicative
// parameterization used in the paper (e.g. m3 = 0.8 means "March prices
// decreased by 20%"; untouched variables keep their factor of 1). It is a
// list of (variable, value) entries sorted by variable — a scenario names a
// few of them — so reading it is a binary search, copying it one copy, and
// every walk over it runs in Var order.
type Assignment struct {
	names *polynomial.Names
	vals  []entry // ascending by v, each v once
}

type entry struct {
	v polynomial.Var
	x float64
}

// New returns an empty assignment over the namespace.
func New(names *polynomial.Names) *Assignment {
	return &Assignment{names: names}
}

// Names returns the namespace of the assignment.
func (a *Assignment) Names() *polynomial.Names { return a.names }

// Set assigns value x to the variable called name. It is an error if the
// name was never interned (catches scenario typos).
func (a *Assignment) Set(name string, x float64) error {
	v, ok := a.names.Lookup(name)
	if !ok {
		return fmt.Errorf("valuation: unknown variable %q", name)
	}
	a.SetVar(v, x)
	return nil
}

// MustSet is Set that panics on unknown names; for test and demo literals.
func (a *Assignment) MustSet(name string, x float64) *Assignment {
	if err := a.Set(name, x); err != nil {
		panic(err)
	}
	return a
}

// SetVar assigns value x to v. A v above every assigned variable is
// appended; any other new v is inserted in place, which moves the entries
// above it — O(Len) — so a decoder of n entries in arbitrary order sorts
// them by Var first and pays O(n log n), not O(n²).
func (a *Assignment) SetVar(v polynomial.Var, x float64) {
	if n := len(a.vals); n == 0 || a.vals[n-1].v < v {
		a.vals = append(a.vals, entry{v, x})
	} else if i, ok := find(a.vals, v); ok {
		a.vals[i].x = x
	} else {
		a.vals = slices.Insert(a.vals, i, entry{v, x})
	}
}

// find returns the position of v's entry in vals, or where it would be
// inserted.
func find(vals []entry, v polynomial.Var) (int, bool) {
	lo, hi := 0, len(vals)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); vals[mid].v < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(vals) && vals[lo].v == v
}

// Get returns the value of v (1 if unassigned).
func (a *Assignment) Get(v polynomial.Var) float64 {
	if i, ok := find(a.vals, v); ok {
		return a.vals[i].x
	}
	return 1
}

// Has reports whether v is explicitly assigned.
func (a *Assignment) Has(v polynomial.Var) bool {
	_, ok := find(a.vals, v)
	return ok
}

// Len returns the number of explicitly assigned variables.
func (a *Assignment) Len() int { return len(a.vals) }

// Func adapts the assignment to the evaluation callback form.
func (a *Assignment) Func() func(polynomial.Var) float64 { return a.Get }

// Dense materializes the assignment as a slice of length n indexed by Var,
// with 1 for unassigned variables.
func (a *Assignment) Dense(n int) []float64 {
	out := slices.Repeat([]float64{1}, n)
	for _, e := range a.vals {
		if inRange(e.v, n) {
			out[e.v] = e.x
		}
	}
	return out
}

// Clone returns an independent copy.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{names: a.names, vals: slices.Clone(a.vals)}
}

// Items returns the explicit (name, value) pairs sorted by name.
func (a *Assignment) Items() []Item {
	out := make([]Item, 0, len(a.vals))
	for _, e := range a.vals {
		out = append(out, Item{Name: a.names.Name(e.v), Var: e.v, Value: e.x})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Item is one explicit assignment entry.
type Item struct {
	Name  string
	Var   polynomial.Var
	Value float64
}

// Induced computes the default valuation for the meta-variables of the cuts:
// each meta-variable gets the unweighted average of its abstracted leaves'
// values under base ("a default value (average over the abstracted
// variables' values)", §3). Context variables keep their base values.
//
// Only a group that base assigns a leaf of is averaged and entered: a group
// of n unassigned leaves averages to n/n, exactly 1, which is what Get
// returns for an absent variable anyway. The result is base plus one entry
// per cut node above an assigned leaf (base's own entry for a cut node's
// meta-variable is overwritten by that node's average), and the cost is
// O((entries of base + leaves under those nodes) · log), whatever the size
// of the trees and the cuts. Cuts of different trees are taken to define
// different meta-variables, as the cuts of a forest do.
func Induced(base *Assignment, cuts ...abstraction.Cut) *Assignment {
	var varBuf [64]polynomial.Var
	var nodeBuf [64]abstraction.NodeID
	var metaBuf [64]entry
	vars, metas := varBuf[:0], metaBuf[:0]
	for _, e := range base.vals {
		vars = append(vars, e.v)
	}
	for k, c := range cuts {
		// The closure does not outlive ContainsFunc, so it stays on the
		// stack (TestScenarioPathAllocations).
		if slices.ContainsFunc(cuts[:k], func(p abstraction.Cut) bool { return p.Tree == c.Tree }) {
			continue // averaged with the first cut of its tree
		}
		for _, id := range c.Tree.Reached(nodeBuf[:0], cuts[k:], vars) {
			sum, leaves := leafSum(c.Tree, id, base, 0, 0)
			metas = append(metas, entry{c.Tree.Node(id).Var, sum / float64(leaves)})
		}
	}
	slices.SortFunc(metas, func(a, b entry) int { return cmp.Compare(a.v, b.v) })

	// Merge the two sorted lists; a meta-variable's entry replaces base's.
	out := &Assignment{names: base.names, vals: make([]entry, 0, len(base.vals)+len(metas))}
	rest := base.vals
	for k, m := range metas {
		if k > 0 && metas[k-1].v == m.v {
			continue // two trees name one meta-variable: one entry
		}
		i, ok := find(rest, m.v)
		out.vals = append(append(out.vals, rest[:i]...), m)
		if ok {
			i++
		}
		rest = rest[i:]
	}
	out.vals = append(out.vals, rest...)
	return out
}

// leafSum adds base's value of every leaf under id to sum, depth-first (the
// order of Cut.GroupedLeaves), and their number to n. A node without
// children is its own one leaf. It sits on the slider's path, once per
// group a scenario assigns into, so it builds no list of the leaves.
func leafSum(t *abstraction.Tree, id abstraction.NodeID, base *Assignment, sum float64, n int) (float64, int) {
	node := t.Node(id)
	if len(node.Children) == 0 {
		return sum + base.Get(node.Var), n + 1
	}
	for _, c := range node.Children {
		sum, n = leafSum(t, c, base, sum, n)
	}
	return sum, n
}

// EvalSet evaluates every polynomial of set under a, in order.
func EvalSet(set *polynomial.Set, a *Assignment) []float64 {
	return set.EvalAll(a.Get)
}
