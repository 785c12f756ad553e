package valuation

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// referenceInduced is Induced as it was before it looked only at the groups
// a scenario assigns into: every node of every cut gets the average of
// Cut.GroupedLeaves, summed left to right, written into a copy of base.
func referenceInduced(base *Assignment, cuts ...abstraction.Cut) *Assignment {
	want := base.Clone()
	for _, c := range cuts {
		for i, leaves := range c.GroupedLeaves() {
			sum := 0.0
			for _, l := range leaves {
				sum += base.Get(l)
			}
			want.SetVar(c.Tree.Node(c.Nodes[i]).Var, sum/float64(len(leaves)))
		}
	}
	return want
}

// growTree adds n leaves to tree at random depths, named prefix<i>; a leaf
// picked as a parent becomes an inner node.
func growTree(r *rand.Rand, tree *abstraction.Tree, prefix string, n int) {
	for i := 0; i < n; i++ {
		parent := abstraction.NodeID(r.Intn(tree.Len()))
		if d := tree.Depth(parent); d > 3 || d > 0 && r.Intn(2) == 0 {
			parent = tree.Node(parent).Parent
		}
		tree.MustAddChild(parent, fmt.Sprintf("%s%d", prefix, tree.Len()))
	}
}

// sameValue reports whether two values are the same bits, or both NaN: which
// payload survives NaN + NaN depends on the operand order the compiler
// picked, which differs between the reference loop and leafSum.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestInducedMatchesGroupedLeaves: against the whole-tree reference, Induced
// gives every variable of the namespace the same value bit for bit, and
// holds an entry exactly for base's entries and the cut nodes above an
// assigned leaf — over one to ten cuts of one or two trees (several cuts of
// one tree, root cuts, leaf cut nodes), Vars in an order unrelated to the
// trees' shape, base entries on leaves, inner nodes, context variables and
// NoVar, special values, and trees grown after a first Induced.
func TestInducedMatchesGroupedLeaves(t *testing.T) {
	special := []float64{0, 1, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for trial := 0; trial < 200; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		names := polynomial.NewNames()
		// Interning the names the trees will use in a shuffled order first
		// makes Var order differ from node order.
		for _, i := range r.Perm(400) {
			if r.Intn(2) == 0 {
				names.Var(fmt.Sprintf("t%dn%d", i%2, i/2))
			}
		}
		context := []polynomial.Var{names.Var("ctx0"), names.Var("ctx1"), polynomial.NoVar}
		trees := []*abstraction.Tree{abstraction.NewTree("t0n0", names)}
		if r.Intn(2) == 0 {
			trees = append(trees, abstraction.NewTree("t1n0", names))
		}
		for round := 0; round < 2; round++ {
			// The second round grows the trees Induced has already seen.
			for ti, tree := range trees {
				growTree(r, tree, fmt.Sprintf("t%dn", ti), 1+r.Intn([]int{6, 40, 150}[r.Intn(3)]))
			}
			cuts := make([]abstraction.Cut, 1+r.Intn([]int{4, 4, 10}[r.Intn(3)]))
			for k := range cuts {
				tree := trees[r.Intn(len(trees))]
				switch r.Intn(6) {
				case 0:
					cuts[k] = tree.RootCut()
				case 1:
					cuts[k] = tree.LeafCut()
				default:
					cuts[k] = randomCut(r, tree, 2+r.Intn(3))
				}
			}

			base := New(names)
			value := func() float64 {
				if r.Intn(3) == 0 {
					return special[r.Intn(len(special))]
				}
				return r.Float64() * 2
			}
			for _, tree := range trees {
				share := []int{1, 3, 30}[r.Intn(3)] // nearly every leaf, a third, a few
				for id := abstraction.NodeID(0); int(id) < tree.Len(); id++ {
					if tree.IsLeaf(id) && r.Intn(share) == 0 || !tree.IsLeaf(id) && r.Intn(12) == 0 {
						base.SetVar(tree.Node(id).Var, value())
					}
				}
			}
			for _, v := range context {
				if r.Intn(2) == 0 {
					base.SetVar(v, value())
				}
			}

			explicit := map[polynomial.Var]bool{}
			for v := polynomial.NoVar; int(v) < names.Len(); v++ {
				if base.Has(v) {
					explicit[v] = true
				}
			}
			for _, c := range cuts {
				for i, leaves := range c.GroupedLeaves() {
					for _, l := range leaves {
						if base.Has(l) {
							explicit[c.Tree.Node(c.Nodes[i]).Var] = true
						}
					}
				}
			}
			want := referenceInduced(base, cuts...)
			before := base.Clone()
			got := Induced(base, cuts...)
			for v := polynomial.NoVar; int(v) < names.Len(); v++ {
				if !sameValue(got.Get(v), want.Get(v)) || got.Has(v) != explicit[v] {
					t.Fatalf("trial %d round %d: variable %d = %v (explicit %v), want %v (explicit %v) under %d cuts",
						trial, round, v, got.Get(v), got.Has(v), want.Get(v), explicit[v], len(cuts))
				}
				if !sameValue(base.Get(v), before.Get(v)) || base.Has(v) != before.Has(v) {
					t.Fatalf("trial %d round %d: Induced changed base at variable %d", trial, round, v)
				}
			}
			if got.Len() != len(explicit) {
				t.Fatalf("trial %d round %d: Len = %d, want %d", trial, round, got.Len(), len(explicit))
			}
		}
	}
}

// TestAssignmentMatchesMap drives an Assignment and a map through the same
// random operations — variables ascending, descending, repeated — and
// compares every read; clones must not follow the original.
func TestAssignmentMatchesMap(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		names := polynomial.NewNames()
		n := 1 + r.Intn(40)
		for v := 0; v < n; v++ {
			names.Var(fmt.Sprintf("v%d", v))
		}
		type pair struct {
			a *Assignment
			m map[polynomial.Var]float64
		}
		check := func(p pair, step int) {
			t.Helper()
			if p.a.Len() != len(p.m) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, p.a.Len(), len(p.m))
			}
			dense := p.a.Dense(n)
			for v := polynomial.NoVar; int(v) <= n; v++ {
				x, ok := p.m[v]
				if !ok {
					x = 1
				}
				if p.a.Has(v) != ok || p.a.Get(v) != x || p.a.Func()(v) != x {
					t.Fatalf("trial %d step %d: v%d = %v (explicit %v), want %v (explicit %v)", trial, step, v, p.a.Get(v), p.a.Has(v), x, ok)
				}
				if v >= 0 && int(v) < n && dense[v] != x {
					t.Fatalf("trial %d step %d: Dense[%d] = %v, want %v", trial, step, v, dense[v], x)
				}
			}
			items := p.a.Items()
			if len(items) != len(p.m) {
				t.Fatalf("trial %d step %d: %d items, want %d", trial, step, len(items), len(p.m))
			}
			for i, it := range items {
				if x, ok := p.m[it.Var]; !ok || x != it.Value || it.Name != names.Name(it.Var) || i > 0 && items[i-1].Name >= it.Name {
					t.Fatalf("trial %d step %d: item %d = %+v after %+v, map has %v (%v)", trial, step, i, it, items[max(i-1, 0)], x, ok)
				}
			}
		}
		live := []pair{{New(names), map[polynomial.Var]float64{}}}
		next := 0
		for step := 0; step < 120; step++ {
			p := live[r.Intn(len(live))]
			v, x := polynomial.Var(r.Intn(n)), float64(r.Intn(9))/4
			switch r.Intn(7) {
			case 0: // ascending run
				next = (next + 1) % n
				v = polynomial.Var(next)
			case 1: // descending run
				next = (next + n - 1) % n
				v = polynomial.Var(next)
			case 2:
				if err := p.a.Set(names.Name(v), x); err != nil {
					t.Fatal(err)
				}
				p.m[v] = x
				continue
			case 3:
				c := pair{p.a.Clone(), map[polynomial.Var]float64{}}
				for k, y := range p.m {
					c.m[k] = y
				}
				live = append(live, c)
				continue
			}
			p.a.SetVar(v, x)
			p.m[v] = x
			if step%10 == 0 {
				for _, q := range live {
					check(q, step)
				}
			}
		}
		for _, q := range live {
			check(q, 120)
		}
		if err := live[0].a.Set("nope", 1); err == nil {
			t.Fatalf("trial %d: Set of an unknown name succeeded", trial)
		}
	}
}

// TestScenarioPathShared is for the race detector: goroutines run Induced
// over one tree and the same base assignments and evaluate on one Program,
// whose pool of sweeps they share; every row must still be the reference's.
func TestScenarioPathShared(t *testing.T) {
	set, cut, bases := sliderFixture(rand.New(rand.NewSource(5)), 12)
	comp := abstraction.Apply(set, 1, cut)
	prog := Compile(comp)
	var induced []*Assignment
	for _, a := range bases {
		induced = append(induced, referenceInduced(a, cut))
	}
	want := referenceEvalBatch(comp, prog.NumVars(), induced)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				k := (g + round) % len(bases)
				got := prog.EvalBatchN([]*Assignment{Induced(bases[k], cut), Induced(bases[(k+1)%len(bases)], cut)}, nil, 1+g%3)
				for i, row := range got {
					for pi, x := range row {
						if w := want[(k+i)%len(bases)][pi]; math.Float64bits(x) != math.Float64bits(w) {
							t.Errorf("goroutine %d round %d scenario %d polynomial %d: %v, want %v", g, round, i, pi, x, w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScenarioPathAllocations pins what the slider's path allocates, which
// must not follow the size of the tree, the namespace or the program:
// Induced on a three-leaf scenario over the 500-leaf SKU tree or the
// 84-month date tree returns an Assignment and its entries (its scratch
// stays on the stack), and a warmed one-scenario EvalBatchN into a reused
// out on the compressed program (two terms per monomial, or one) takes its
// sweep from the pool and allocates only the closure it hands to
// parallel.Chunks.
func TestScenarioPathAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	retail, retailCut, _ := sliderFixture(r, 1)
	tpch, dates := tpchShaped()
	for _, tc := range []struct {
		kernel string
		set    *polynomial.Set
		cut    abstraction.Cut
	}{
		{"arity2", retail, retailCut},
		{"arity1", tpch, randomCut(r, dates, 3)},
	} {
		tree := tc.cut.Tree
		base := New(tc.set.Names)
		for _, leaf := range tree.Leaves()[:3] {
			base.SetVar(tree.Node(leaf).Var, 0.5)
		}
		var induced *Assignment
		if allocs := testing.AllocsPerRun(100, func() { induced = Induced(base, tc.cut) }); allocs > 3 {
			t.Errorf("%s: Induced of a 3-leaf scenario allocates %.0f objects, want <= 3", tc.kernel, allocs)
		}

		if raceEnabled {
			continue
		}
		prog := compileAs(t, abstraction.Apply(tc.set, 1, tc.cut), tc.kernel)
		scenario := []*Assignment{induced}
		out := prog.EvalBatchN(scenario, nil, 1)
		if allocs := testing.AllocsPerRun(100, func() { out = prog.EvalBatchN(scenario, out, 1) }); allocs > 1 {
			t.Errorf("%s: a warmed one-scenario EvalBatchN allocates %.0f objects, want <= 1 (none sized by %d variables or %d polynomials)",
				tc.kernel, allocs, prog.NumVars(), prog.NumPolys())
		}
	}
}
