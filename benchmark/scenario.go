package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// group is a set of leaf variables a scenario scales together: the leaves
// under one tree node, or one context variable outside every tree. A
// scenario uniform on the groups of a cut is answered exactly by the
// provenance compressed under that cut.
type group []polynomial.Var

// cutGroups returns one group per cut node.
func cutGroups(cuts ...abstraction.Cut) []group {
	var out []group
	for _, c := range cuts {
		for _, leaves := range c.GroupedLeaves() {
			if len(leaves) > 0 {
				out = append(out, group(leaves))
			}
		}
	}
	return out
}

// rootChildGroups returns one group per child of each tree's root: uniform
// for every cut except the root cut itself.
func rootChildGroups(trees abstraction.Forest) []group {
	var out []group
	for _, t := range trees {
		for _, child := range t.Node(t.Root()).Children {
			g := group{}
			for _, leaf := range t.LeavesUnder(child) {
				g = append(g, t.Node(leaf).Var)
			}
			out = append(out, g)
		}
	}
	return out
}

// contextGroups returns a singleton group per used variable that is no leaf
// of any tree (months in the telephony set, weeks in the retail one).
func contextGroups(used []polynomial.Var, trees abstraction.Forest) []group {
	owners := trees.LeafOwners()
	var out []group
	for _, v := range used {
		if _, ok := owners[v]; !ok {
			out = append(out, group{v})
		}
	}
	return out
}

// factor draws a what-if multiplier in [0.5, 1.5).
func factor(r *rand.Rand) float64 { return 0.5 + r.Float64() }

// sparseScenario changes one to three groups: the interactive slider.
func sparseScenario(r *rand.Rand, names *polynomial.Names, groups []group) *valuation.Assignment {
	a := valuation.New(names)
	for n := 1 + r.Intn(3); n > 0; n-- {
		f := factor(r)
		for _, v := range groups[r.Intn(len(groups))] {
			a.SetVar(v, f)
		}
	}
	return a
}

// denseScenario changes every group: one row of an analyst's batch.
func denseScenario(r *rand.Rand, names *polynomial.Names, groups []group) *valuation.Assignment {
	a := valuation.New(names)
	for _, g := range groups {
		f := factor(r)
		for _, v := range g {
			a.SetVar(v, f)
		}
	}
	return a
}

// expand turns an assignment of meta-variables back into the leaf
// assignment it stands for: every leaf under a cut node takes the node's
// value. Evaluating the full provenance under expand(Induced(a, cuts))
// must equal evaluating the compressed provenance under Induced(a, cuts),
// for any a and any cuts.
func expand(induced *valuation.Assignment, cuts []abstraction.Cut) *valuation.Assignment {
	out := induced.Clone()
	for _, c := range cuts {
		groups := c.GroupedLeaves()
		for i, id := range c.Nodes {
			x := induced.Get(c.Tree.Node(id).Var)
			for _, leaf := range groups[i] {
				out.SetVar(leaf, x)
			}
		}
	}
	return out
}

// sameRows reports whether two result rows agree within rel relative error
// (0 demands bit-identity).
func sameRows(got, want []float64, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("row has %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		scale := math.Max(math.Abs(got[i]), math.Abs(want[i]))
		if rel == 0 || math.Abs(got[i]-want[i]) > rel*scale {
			return fmt.Errorf("value %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// answerTolerance is how far a compressed answer may sit from the full one
// for a scenario uniform on the cut's groups: the two sum the same products
// in different orders.
const answerTolerance = 1e-9
