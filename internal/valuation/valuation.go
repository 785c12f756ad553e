// Package valuation implements hypothetical-reasoning valuations: assigning
// values to provenance (meta-)variables and evaluating provenance
// polynomials under them, quickly. It provides the induced default values
// for meta-variables (the average of the abstracted variables' values, as in
// the demo's Figure-5 screen), accuracy metrics comparing compressed against
// full provenance, and the assignment-speedup measurement the demo reports.
package valuation

import (
	"fmt"
	"sort"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Assignment is a sparse valuation of provenance variables. Unassigned
// variables default to 1, the identity for the multiplicative
// parameterization used in the paper (e.g. m3 = 0.8 means "March prices
// decreased by 20%"; untouched variables keep their factor of 1).
type Assignment struct {
	names *polynomial.Names
	vals  map[polynomial.Var]float64
}

// New returns an empty assignment over the namespace.
func New(names *polynomial.Names) *Assignment {
	return &Assignment{names: names, vals: make(map[polynomial.Var]float64)}
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
	a.vals[v] = x
	return nil
}

// MustSet is Set that panics on unknown names; for test and demo literals.
func (a *Assignment) MustSet(name string, x float64) *Assignment {
	if err := a.Set(name, x); err != nil {
		panic(err)
	}
	return a
}

// SetVar assigns value x to v.
func (a *Assignment) SetVar(v polynomial.Var, x float64) { a.vals[v] = x }

// Get returns the value of v (1 if unassigned).
func (a *Assignment) Get(v polynomial.Var) float64 {
	if x, ok := a.vals[v]; ok {
		return x
	}
	return 1
}

// Has reports whether v is explicitly assigned.
func (a *Assignment) Has(v polynomial.Var) bool {
	_, ok := a.vals[v]
	return ok
}

// Len returns the number of explicitly assigned variables.
func (a *Assignment) Len() int { return len(a.vals) }

// Func adapts the assignment to the evaluation callback form.
func (a *Assignment) Func() func(polynomial.Var) float64 { return a.Get }

// Dense materializes the assignment as a slice of length n indexed by Var,
// with 1 for unassigned variables.
func (a *Assignment) Dense(n int) []float64 {
	out := ones(n)
	//cobra:deterministic writes to distinct slice indices; visit order cannot reach the result
	for v, x := range a.vals {
		if inRange(v, n) {
			out[v] = x
		}
	}
	return out
}

// Clone returns an independent copy.
func (a *Assignment) Clone() *Assignment { return a.clone(0) }

// clone is Clone with room for extra more entries.
func (a *Assignment) clone(extra int) *Assignment {
	c := &Assignment{names: a.names, vals: make(map[polynomial.Var]float64, len(a.vals)+extra)}
	//cobra:deterministic map-to-map copy; visit order cannot reach the result
	for v, x := range a.vals {
		c.vals[v] = x
	}
	return c
}

// Items returns the explicit (name, value) pairs sorted by name.
func (a *Assignment) Items() []Item {
	out := make([]Item, 0, len(a.vals))
	for v, x := range a.vals {
		out = append(out, Item{Name: a.names.Name(v), Var: v, Value: x})
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
func Induced(base *Assignment, cuts ...abstraction.Cut) *Assignment {
	metas := 0
	for _, c := range cuts {
		metas += len(c.Nodes)
	}
	out := base.clone(metas)
	for _, c := range cuts {
		for _, id := range c.Nodes {
			sum, leaves := leafSum(c.Tree, id, base, 0, 0)
			out.SetVar(c.Tree.Node(id).Var, sum/float64(leaves))
		}
	}
	return out
}

// leafSum adds base's value of every leaf under id to sum, depth-first (the
// order of Cut.GroupedLeaves), and their number to n. A node without
// children is its own one leaf. It sits on the slider's path, once per
// scenario, so it builds no list of the leaves.
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

// InducedWeighted is Induced with leaves weighted by their total absolute
// coefficient mass in set — an extension compared against the plain average
// in experiment E6's error table. Leaves that never occur get weight 0; if
// an entire group has zero mass the unweighted average is used.
func InducedWeighted(base *Assignment, set *polynomial.Set, cuts ...abstraction.Cut) *Assignment {
	mass := make(map[polynomial.Var]float64)
	for _, p := range set.Polys {
		for _, m := range p.Mons {
			w := m.Coef
			if w < 0 {
				w = -w
			}
			for _, t := range m.Terms {
				mass[t.Var] += w
			}
		}
	}
	out := base.Clone()
	for _, c := range cuts {
		groups := c.GroupedLeaves()
		for i, id := range c.Nodes {
			leaves := groups[i]
			if len(leaves) == 0 {
				continue
			}
			var num, den float64
			for _, l := range leaves {
				num += mass[l] * base.Get(l)
				den += mass[l]
			}
			var avg float64
			if den == 0 {
				for _, l := range leaves {
					avg += base.Get(l)
				}
				avg /= float64(len(leaves))
			} else {
				avg = num / den
			}
			out.SetVar(c.Tree.Node(id).Var, avg)
		}
	}
	return out
}

// EvalSet evaluates every polynomial of set under a, in order.
func EvalSet(set *polynomial.Set, a *Assignment) []float64 {
	return set.EvalAll(a.Get)
}
