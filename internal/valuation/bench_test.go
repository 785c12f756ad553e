package valuation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// retailShaped builds a seeded program of the shape the sparse path is for:
// 1000 polynomials (stores) of ≈200 two-term monomials coef·sku·week over
// ≈600 variables, each store stocking 15 of 500 SKUs over a 14-week season.
// For kernel "generic" every fourth monomial carries week², and for "exp1"
// a third term, which puts the program on that kernel with nothing else
// changed; any other kernel gets the two-term shape.
func retailShaped(kernel string) (*polynomial.Set, []polynomial.Var) {
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
	spares := make([]polynomial.Var, 48)
	for i := range spares {
		spares[i] = names.Var(fmt.Sprintf("spare%d", i))
	}
	set := polynomial.NewSet(names)
	for st := 0; st < 1000; st++ {
		first := r.Intn(len(weeks) - 14 + 1)
		var b polynomial.Builder
		for _, s := range r.Perm(len(skus))[:15] {
			for w := first; w < first+14; w++ {
				terms := []polynomial.Term{polynomial.T(skus[s]), polynomial.T(weeks[w])}
				switch {
				case (s+w)%4 != 0:
				case kernel == "generic":
					terms[1].Exp = 2
				case kernel == "exp1":
					terms = append(terms, polynomial.T(spares[s%len(spares)]))
				}
				b.Add(1+float64(r.Intn(9000))/100, terms...)
			}
		}
		if err := set.Add(fmt.Sprintf("store%d", st), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set, skus
}

// telephonyShaped builds a program of whatif_telephony's shape (this
// package cannot import datagen/telephony): zips polynomials of 132
// two-term monomials coef·plan·month over 11 plans and 12 months, so each
// of the 23 variables is in every polynomial.
func telephonyShaped(zips int) *polynomial.Set {
	r := rand.New(rand.NewSource(5))
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	for z := 0; z < zips; z++ {
		var b polynomial.Builder
		for plan := 0; plan < 11; plan++ {
			for m := 0; m < 12; m++ {
				b.Add(1+float64(r.Intn(900000))/100,
					polynomial.T(names.Var(fmt.Sprintf("plan%d", plan))), polynomial.T(names.Var(fmt.Sprintf("mo%d", m))))
			}
		}
		if err := set.Add(fmt.Sprintf("zip%d", z), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set
}

// tpchShaped builds a one-term program of capture_tpch's shape, larger: 1500
// groups, each a sum of coef·month over the 84 ship months of dateShaped's
// tree, which it returns too.
func tpchShaped() (*polynomial.Set, *abstraction.Tree) {
	r := rand.New(rand.NewSource(6))
	names := polynomial.NewNames()
	tree := dateShaped(names)
	set := polynomial.NewSet(names)
	for g := 0; g < 1500; g++ {
		var b polynomial.Builder
		for _, leaf := range tree.Leaves() {
			b.Add(1+float64(r.Intn(9000))/100, polynomial.T(tree.Node(leaf).Var))
		}
		if err := set.Add(fmt.Sprintf("group%d", g), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set, tree
}

// denseRows are BenchmarkProgramEval's full-pass rows, each named after the
// kernel its program compiles to (and a shape, after a dash).
var denseRows = []string{"generic", "exp1", "arity2", "arity2-telephony", "arity1"}

// denseShaped returns the set of a denseRows row.
func denseShaped(row string) *polynomial.Set {
	switch row {
	case "arity2-telephony":
		return telephonyShaped(1055)
	case "arity1":
		set, _ := tpchShaped()
		return set
	}
	set, _ := retailShaped(row)
	return set
}

// denseScenarios draws n scenarios that each move every variable of prog
// to a value in [0.5, 1.5): each needs a full pass.
func denseScenarios(r *rand.Rand, prog *Program, n int) []*Assignment {
	out := make([]*Assignment, n)
	for i := range out {
		out[i] = New(prog.names)
		for v := 0; v < prog.NumVars(); v++ {
			out[i].SetVar(polynomial.Var(v), 0.5+r.Float64())
		}
	}
	return out
}

// kernelOf names the kernel evalPoly runs for prog.
func kernelOf(prog *Program) string {
	switch {
	case prog.arity != 0:
		return fmt.Sprintf("arity%d", prog.arity)
	case prog.tExps == nil:
		return "exp1"
	}
	return "generic"
}

// compileAs compiles set and fails unless it runs kernel.
func compileAs(tb testing.TB, set *polynomial.Set, kernel string) *Program {
	tb.Helper()
	prog := Compile(set)
	if got := kernelOf(prog); got != kernel {
		tb.Fatalf("a program meant for the %s kernel compiled to %s", kernel, got)
	}
	return prog
}

var benchRows [][]float64

// BenchmarkProgramEval is the layer benchmark of scenario evaluation, in
// monomials of the program answered for per scenario — so the sparse rows
// report the work a scenario's answer stands for, not the smaller work done.
//
//	dense/generic             retail with week² in every fourth monomial
//	dense/exp1                retail with a third term in every fourth monomial
//	dense/arity2              retail: two terms in every monomial
//	dense/arity2-telephony    1 055 × 132 × 2, whatif_telephony's shape
//	dense/arity1              1 500 × 84 × 1, a TPC-H group-by-month shape
//	sparse/touched=6%         retail, two SKUs moved, as an interactive slider does
//
// A dense row moves every variable: the full pass of its kernel. It is run
// as scenarios=1, the one-scenario kernel every slider runs, and as
// scenarios=16, a batch whose full passes run in blocks of blockRows —
// except on generic, which evaluates every scenario alone either way.
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
	for _, row := range denseRows {
		kernel, _, _ := strings.Cut(row, "-")
		set := denseShaped(row)
		prog := compileAs(b, set, kernel)
		scenarios := denseScenarios(r, prog, 16)
		for _, n := range []int{1, 16} {
			b.Run(fmt.Sprintf("dense/%s/scenarios=%d", row, n), func(b *testing.B) { run(b, prog, scenarios[:n]) })
		}
	}

	set, skus := retailShaped("arity2")
	prog := compileAs(b, set, "arity2")
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

var benchProg *Program

// BenchmarkCompile is the layer row of Compile, in monomials per second on
// the retail and telephony shapes. setArity/… times alone the scan of a
// shard's monomial offsets that EvalBatchSource makes to pick the shard's
// kernel, on a shard of store_outofcore's size: its budget of an eighth of
// the telephony set seals a shard at the first polynomial that takes it
// past a sixteenth, 66 polynomials of 132 monomials.
func BenchmarkCompile(b *testing.B) {
	for _, row := range []struct{ name, shape string }{{"retail", "arity2"}, {"telephony", "arity2-telephony"}} {
		set := denseShaped(row.shape)
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchProg = Compile(set)
			}
			b.ReportMetric(float64(b.N)*float64(set.Size())/b.Elapsed().Seconds(), "monomials/s")
		})
	}
	shard := Compile(telephonyShaped(66))
	b.Run(fmt.Sprintf("setArity/monomials=%d", shard.Size()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shard.setArity()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(shard.Size())), "ns/monomial")
	})
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
	set, skus := retailShaped("arity2")
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
