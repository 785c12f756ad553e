package valuation

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// retailShaped builds a seeded program of the shape the sparse path is for:
// 1000 polynomials (stores) of ≈200 two-term monomials coef·sku·week over
// ≈600 variables, each store stocking 15 of 500 SKUs over a 14-week season.
// With squareWeeks every fourth monomial carries week², which puts the
// program on the generic kernel with nothing else changed.
func retailShaped(squareWeeks bool) (*polynomial.Set, []polynomial.Var) {
	r := rand.New(rand.NewSource(1))
	names := polynomial.NewNames()
	skus := make([]polynomial.Var, 500)
	for i := range skus {
		skus[i] = names.Var(fmt.Sprintf("sku%d", i))
	}
	weeks := make([]polynomial.Var, 52)
	for i := range weeks {
		weeks[i] = names.Var(fmt.Sprintf("wk%d", i))
	}
	for i := 0; i < 48; i++ {
		names.Var(fmt.Sprintf("spare%d", i))
	}
	set := polynomial.NewSet(names)
	for st := 0; st < 1000; st++ {
		first := r.Intn(len(weeks) - 14 + 1)
		var b polynomial.Builder
		for _, s := range r.Perm(len(skus))[:15] {
			for w := first; w < first+14; w++ {
				e := int32(1)
				if squareWeeks && (s+w)%4 == 0 {
					e = 2
				}
				b.Add(1+float64(r.Intn(9000))/100, polynomial.T(skus[s]), polynomial.TExp(weeks[w], e))
			}
		}
		if err := set.Add(fmt.Sprintf("store%d", st), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set, skus
}

var benchRows [][]float64

// BenchmarkProgramEval is the layer benchmark of scenario evaluation, in
// monomials of the program answered for per scenario — so the sparse rows
// report the work a scenario's answer stands for, not the smaller work done.
//
//	dense/generic, dense/exp1  every variable moved: the full pass of each kernel
//	sparse/touched=6%          two SKUs moved, as an interactive slider does
func BenchmarkProgramEval(b *testing.B) {
	run := func(b *testing.B, prog *Program, scenarios []*Assignment) {
		rows := prog.EvalBatchN(scenarios, nil, 1) // builds the index
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows = prog.EvalBatchN(scenarios, rows, 1)
		}
		benchRows = rows
		monomials := float64(b.N) * float64(len(scenarios)) * float64(prog.Size())
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/monomials, "ns/monomial")
		b.ReportMetric(monomials/b.Elapsed().Seconds(), "scenario·monomials/s")
	}
	r := rand.New(rand.NewSource(2))
	for _, kernel := range []string{"generic", "exp1"} {
		set, _ := retailShaped(kernel == "generic")
		prog := Compile(set)
		if (prog.tExps == nil) != (kernel == "exp1") {
			b.Fatalf("%s program compiled to the other kernel", kernel)
		}
		scenarios := make([]*Assignment, 16)
		for i := range scenarios {
			scenarios[i] = New(set.Names)
			for v := 0; v < prog.NumVars(); v++ {
				scenarios[i].SetVar(polynomial.Var(v), 0.5+r.Float64())
			}
		}
		b.Run("dense/"+kernel, func(b *testing.B) { run(b, prog, scenarios) })
	}

	set, skus := retailShaped(false)
	prog := Compile(set)
	scenarios := make([]*Assignment, 16)
	touched := 0
	for i := range scenarios {
		scenarios[i] = New(set.Names)
		for _, s := range r.Perm(len(skus))[:2] {
			scenarios[i].SetVar(skus[s], 0.5+r.Float64())
		}
		for _, poly := range set.Polys {
			for _, m := range poly.Mons {
				if scenarios[i].Has(m.Terms[0].Var) {
					touched++
					break
				}
			}
		}
	}
	if share := float64(touched) / float64(len(scenarios)*set.Len()); share < 0.055 || share >= 0.065 {
		b.Fatalf("the sparse scenarios touch %.3f of the polynomials, not 6%%", share)
	}
	b.Run("sparse/touched=6%", func(b *testing.B) { run(b, prog, scenarios) })
}

// dateShaped builds a tree of the shape of tpch.DateTree (this package
// cannot import it): seven years of four quarters of three months.
func dateShaped(names *polynomial.Names) *abstraction.Tree {
	tree := abstraction.NewTree("AllTime", names)
	for y := 1992; y <= 1998; y++ {
		for m := 1; m <= 12; m++ {
			if _, err := tree.AddPath(fmt.Sprintf("y%d", y), fmt.Sprintf("y%dq%d", y, (m+2)/3), fmt.Sprintf("mo_%d_%02d", y, m)); err != nil {
				panic(err)
			}
		}
	}
	return tree
}

// retailTree builds a three-level category tree over retailShaped's SKUs:
// 10 departments of 5 classes of 10 SKUs.
func retailTree(names *polynomial.Names, skus []polynomial.Var) *abstraction.Tree {
	tree := abstraction.NewTree("AllSKUs", names)
	for i, v := range skus {
		if _, err := tree.AddPath(fmt.Sprintf("dept%d", i/50), fmt.Sprintf("class%d", i/10), names.Name(v)); err != nil {
			panic(err)
		}
	}
	return tree
}

// randomCut draws a cut from the root down: a node is kept with probability
// 1/keep, else the walk descends into its children.
func randomCut(r *rand.Rand, tree *abstraction.Tree, keep int) abstraction.Cut {
	var nodes []abstraction.NodeID
	var pick func(id abstraction.NodeID)
	pick = func(id abstraction.NodeID) {
		if node := tree.Node(id); len(node.Children) == 0 || id != tree.Root() && r.Intn(keep) == 0 {
			nodes = append(nodes, id)
		} else {
			for _, c := range node.Children {
				pick(c)
			}
		}
	}
	pick(tree.Root())
	cut, err := abstraction.NewCut(tree, nodes...)
	if err != nil {
		panic(err)
	}
	return cut
}

// groupScenarios draws n scenarios that each scale one to three of groups —
// every leaf under the node by one factor, so the scenario is uniform on
// every cut at or below those nodes.
func groupScenarios(r *rand.Rand, n int, tree *abstraction.Tree, groups []abstraction.NodeID) []*Assignment {
	out := make([]*Assignment, n)
	for i := range out {
		out[i] = New(tree.Names)
		for k := 1 + r.Intn(3); k > 0; k-- {
			f := 0.5 + r.Float64()
			for _, leaf := range tree.LeavesUnder(groups[r.Intn(len(groups))]) {
				out[i].SetVar(tree.Node(leaf).Var, f)
			}
		}
	}
	return out
}

// sliderFixture is retailShaped with its category tree, one cut, and
// scenarios that each scale the leaves of one to three of the cut's groups.
func sliderFixture(r *rand.Rand, scenarios int) (*polynomial.Set, abstraction.Cut, []*Assignment) {
	set, skus := retailShaped(false)
	tree := retailTree(set.Names, skus)
	cut := randomCut(r, tree, 3)
	return set, cut, groupScenarios(r, scenarios, tree, cut.Nodes)
}

var benchInduced *Assignment

// BenchmarkInduced is the layer row of the step in front of a compressed
// what-if: one to three groups moved — years of a tree of the TPC-H date
// shape under six cuts (what capture_tpch's slider induces onto), groups of
// the one cut of the 500-SKU retail tree. moved-vars/op is the cut nodes a
// scenario moves off 1; the cost must follow it, not the trees' size.
func BenchmarkInduced(b *testing.B) {
	run := func(b *testing.B, scenarios []*Assignment, cuts []abstraction.Cut) {
		moved := 0
		for _, base := range scenarios {
			induced := Induced(base, cuts...)
			for _, c := range cuts {
				for _, id := range c.Nodes {
					if induced.Get(c.Tree.Node(id).Var) != 1 {
						moved++
					}
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchInduced = Induced(scenarios[i%len(scenarios)], cuts...)
		}
		b.ReportMetric(float64(moved)/float64(len(scenarios)), "moved-vars/op")
	}
	r := rand.New(rand.NewSource(3))
	dates := dateShaped(polynomial.NewNames())
	var cuts []abstraction.Cut
	for k := 0; k < 6; k++ {
		cuts = append(cuts, randomCut(r, dates, 2+k%3))
	}
	byYear := groupScenarios(r, 16, dates, dates.Node(dates.Root()).Children)
	b.Run("dates/cuts=6", func(b *testing.B) { run(b, byYear, cuts) })

	_, cut, scenarios := sliderFixture(r, 16)
	b.Run("retail/cuts=1", func(b *testing.B) { run(b, scenarios, []abstraction.Cut{cut}) })
}

// BenchmarkSliderPath is what an analyst waits for after moving a slider,
// on the full provenance (evaluate) and on the compressed one (induce the
// leaf-level scenario onto the cut, then evaluate): the paper's "assignment
// time, full vs compressed" for one scenario at a time, rows reused.
func BenchmarkSliderPath(b *testing.B) {
	set, cut, scenarios := sliderFixture(rand.New(rand.NewSource(4)), 16)
	full, comp := Compile(set), Compile(abstraction.Apply(set, 1, cut))
	one := make([]*Assignment, 1)
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			one[0] = scenarios[i%len(scenarios)]
			benchRows = full.EvalBatchN(one, benchRows, 1)
		}
	})
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			one[0] = Induced(scenarios[i%len(scenarios)], cut)
			benchRows = comp.EvalBatchN(one, benchRows, 1)
		}
	})
}
