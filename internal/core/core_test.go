package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// figure2 builds the paper's Figure-2 tree and the Example-2 polynomials.
func figure2(t testing.TB) (*polynomial.Set, *abstraction.Tree) {
	t.Helper()
	names := polynomial.NewNames()
	tree, err := abstraction.FromPaths("Plans", names,
		[]string{"Standard", "p1"},
		[]string{"Standard", "p2"},
		[]string{"Special", "Y", "y1"},
		[]string{"Special", "Y", "y2"},
		[]string{"Special", "Y", "y3"},
		[]string{"Special", "F", "f1"},
		[]string{"Special", "F", "f2"},
		[]string{"Special", "v"},
		[]string{"Business", "SB", "b1"},
		[]string{"Business", "SB", "b2"},
		[]string{"Business", "e"},
	)
	if err != nil {
		t.Fatal(err)
	}
	set := polynomial.NewSet(names)
	set.Add("10001", polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names))
	set.Add("10002", polynomial.MustParse(
		"77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3", names))
	return set, tree
}

func TestIndexCounts(t *testing.T) {
	set, tree := figure2(t)
	idx, err := buildIndex(set, tree)
	if err != nil {
		t.Fatal(err)
	}
	if idx.fixed != 0 {
		t.Fatalf("fixed = %d, want 0", idx.fixed)
	}
	// Each used leaf has signatures {(group, m1), (group, m3)} => distinct = 2.
	for _, leafName := range []string{"p1", "f1", "y1", "v", "b1", "b2", "e"} {
		id := tree.ByName(leafName)
		if idx.distinct[id] != 2 {
			t.Errorf("distinct(%s) = %d, want 2", leafName, idx.distinct[id])
		}
	}
	// Unused leaves have no signatures.
	for _, leafName := range []string{"p2", "y2", "y3", "f2"} {
		id := tree.ByName(leafName)
		if idx.distinct[id] != 0 {
			t.Errorf("distinct(%s) = %d, want 0", leafName, idx.distinct[id])
		}
	}
	// Signatures under inner nodes: within one zip group, different leaves
	// share the (group, month) context, so they merge when grouped.
	// Business = b1,b2,e all in group 10002 with months {m1,m3} => 2.
	if got := idx.distinct[tree.ByName("Business")]; got != 2 {
		t.Errorf("distinct(Business) = %d, want 2", got)
	}
	// Special = f1,y1,v in group 10001, months {m1,m3} => 2.
	if got := idx.distinct[tree.ByName("Special")]; got != 2 {
		t.Errorf("distinct(Special) = %d, want 2", got)
	}
	// Root spans both groups => 4 distinct (2 groups × 2 months).
	if got := idx.distinct[tree.Root()]; got != 4 {
		t.Errorf("distinct(Plans) = %d, want 4", got)
	}
}

func TestIndexCutSizeMatchesApply(t *testing.T) {
	set, tree := figure2(t)
	idx, err := buildIndex(set, tree)
	if err != nil {
		t.Fatal(err)
	}
	tree.EnumerateCuts(func(c abstraction.Cut) bool {
		want := abstraction.Apply(set, 1, c).Size()
		if got := idx.cutSize(c); int(got) != want {
			t.Fatalf("cut %s: additive size %d != applied size %d", c, got, want)
		}
		return true
	})
}

func TestIndexMultiVarError(t *testing.T) {
	names := polynomial.NewNames()
	tree, _ := abstraction.FromPaths("T", names, []string{"a"}, []string{"b"})
	set := polynomial.NewSet(names)
	// Two leaves of T in one monomial, between two well-formed siblings.
	set.Add("g", polynomial.MustParse("2*a*x + 3*a*b + 5*b*y", names))
	_, err := buildIndex(set, tree)
	var mv *MultiVarError
	if !errors.As(err, &mv) {
		t.Fatalf("want MultiVarError, got %v", err)
	}
	// Mono is the offending monomial alone, not its whole polynomial.
	if mv.Key != "g" || mv.Mono != "3*a*b" {
		t.Fatalf("MultiVarError{Key: %q, Mono: %q}, want {g, 3*a*b}", mv.Key, mv.Mono)
	}
	// The forest scan reports the same error for the same monomial.
	other, _ := abstraction.FromPaths("U", names, []string{"p"}, []string{"q"})
	_, ferr := FrontierForestSource(set, abstraction.Forest{tree, other}, 1)
	if ferr == nil || ferr.Error() != err.Error() {
		t.Fatalf("forest scan error %v, want %v", ferr, err)
	}
}

func TestDPExample4Cuts(t *testing.T) {
	// The five example cuts give sizes we can hand-compute. P1 and P2 are in
	// different groups and share months, so per group each plan-meta
	// contributes 2 monomials (m1, m3); monomial counts:
	//   leaf cut (11 leaves, 7 used): 14 (the original size)
	//   S1 {Business, Special, Standard}: St:2 (g1), Sp:2 (g1), B:2 (g2) => 6
	//   S4 {SB, e, F, Y, v, p1, p2}: SB:2, e:2, F:2, Y:2, v:2, p1:2 => 12
	//   S5 {Plans}: groups m1/m3 × 2 groups => 4
	set, tree := figure2(t)
	if set.Size() != 14 {
		t.Fatalf("original size = %d, want 14", set.Size())
	}

	cases := []struct {
		bound    int
		wantVars int
		wantSize int
	}{
		{14, 11, 14}, // bound = original: leaf cut, no compression
		{13, 10, 12}, // merge SB (b1,b2 share signatures within group 10002)
		{12, 10, 12},
		// At bound 6 the optimum beats the paper's S1 (k=3): unused leaves
		// contribute no monomials, so {p1, p2, Special, Business} also has
		// size 6 but k=4.
		{6, 4, 6},
		{5, 1, 4}, // no 2-node cut exists; all 3-node cuts have size 6
		{4, 1, 4},
	}
	for _, tc := range cases {
		res, err := DPSingleTreeSource(set, tree, tc.bound, 1)
		if err != nil {
			t.Fatalf("bound %d: %v", tc.bound, err)
		}
		if res.NumMeta != tc.wantVars || res.Size != tc.wantSize {
			t.Errorf("bound %d: got (vars=%d, size=%d) cut=%s, want (%d, %d)",
				tc.bound, res.NumMeta, res.Size, res.Cuts[0], tc.wantVars, tc.wantSize)
		}
		// The reported size must match actually applying the cut.
		if applied := res.Apply(set).Size(); applied != res.Size {
			t.Errorf("bound %d: reported size %d != applied size %d", tc.bound, res.Size, applied)
		}
	}
}

func TestDPInfeasible(t *testing.T) {
	set, tree := figure2(t)
	_, err := DPSingleTreeSource(set, tree, 3, 1) // root cut still needs 4
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("want InfeasibleError, got %v", err)
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatal("InfeasibleError must wrap ErrInfeasible")
	}
	if ie.MinAchievable != 4 {
		t.Fatalf("MinAchievable = %d, want 4", ie.MinAchievable)
	}
}

func TestDPNegativeBound(t *testing.T) {
	set, tree := figure2(t)
	if _, err := DPSingleTreeSource(set, tree, -1, 1); err == nil {
		t.Fatal("negative bound should error")
	}
}

func TestDPMatchesExhaustiveOnFigure2(t *testing.T) {
	set, tree := figure2(t)
	for bound := 4; bound <= 15; bound++ {
		dp, dpErr := DPSingleTreeSource(set, tree, bound, 1)
		ex, exErr := Exhaustive(set, tree, bound)
		if (dpErr == nil) != (exErr == nil) {
			t.Fatalf("bound %d: dpErr=%v exErr=%v", bound, dpErr, exErr)
		}
		if dpErr != nil {
			continue
		}
		if dp.NumMeta != ex.NumMeta || dp.Size != ex.Size {
			t.Errorf("bound %d: DP (vars=%d,size=%d) != exhaustive (vars=%d,size=%d)",
				bound, dp.NumMeta, dp.Size, ex.NumMeta, ex.Size)
		}
	}
}

// randInstance builds a random tree and a random polynomial set that uses
// its leaves plus some context variables, for property testing.
func randInstance(r *rand.Rand) (*polynomial.Set, *abstraction.Tree) {
	names := polynomial.NewNames()
	tree := abstraction.NewTree("R", names)
	ids := []abstraction.NodeID{tree.Root()}
	n := 2 + r.Intn(8)
	for i := 0; i < n; i++ {
		parent := ids[r.Intn(len(ids))]
		id := tree.MustAddChild(parent, fmt.Sprintf("n%d", i))
		ids = append(ids, id)
	}
	leaves := tree.LeafVars()
	ctx := names.Vars("c0", "c1", "c2")
	set := polynomial.NewSet(names)
	groups := 1 + r.Intn(3)
	for g := 0; g < groups; g++ {
		var b polynomial.Builder
		mons := 1 + r.Intn(12)
		for m := 0; m < mons; m++ {
			coef := float64(1 + r.Intn(9))
			var terms []polynomial.Term
			if r.Intn(4) > 0 { // 75%: include one tree leaf
				terms = append(terms, polynomial.TExp(leaves[r.Intn(len(leaves))], int32(1+r.Intn(2))))
			}
			for _, c := range ctx {
				if r.Intn(3) == 0 {
					terms = append(terms, polynomial.T(c))
				}
			}
			b.Add(coef, terms...)
		}
		set.Add(fmt.Sprintf("g%d", g), b.Polynomial())
	}
	return set, tree
}

func TestPropertyDPOptimalVsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		set, tree := randInstance(r)
		orig := set.Size()
		for _, bound := range []int{0, 1, orig / 2, orig, orig + 3} {
			dp, dpErr := DPSingleTreeSource(set, tree, bound, 1)
			ex, exErr := Exhaustive(set, tree, bound)
			if (dpErr == nil) != (exErr == nil) {
				t.Fatalf("trial %d bound %d: dpErr=%v exErr=%v\ntree:\n%s", trial, bound, dpErr, exErr, tree)
			}
			if dpErr != nil {
				var d, e *InfeasibleError
				if errors.As(dpErr, &d) && errors.As(exErr, &e) && d.MinAchievable != e.MinAchievable {
					t.Fatalf("trial %d bound %d: MinAchievable DP %d != exhaustive %d",
						trial, bound, d.MinAchievable, e.MinAchievable)
				}
				continue
			}
			if dp.NumMeta != ex.NumMeta || dp.Size != ex.Size {
				t.Fatalf("trial %d bound %d: DP (vars=%d,size=%d) cut=%s != exhaustive (vars=%d,size=%d) cut=%s\ntree:\n%s",
					trial, bound, dp.NumMeta, dp.Size, dp.Cuts[0], ex.NumMeta, ex.Size, ex.Cuts[0], tree)
			}
			// Reported size must equal materialized size.
			if applied := dp.Apply(set).Size(); applied != dp.Size {
				t.Fatalf("trial %d bound %d: DP size %d != applied %d", trial, bound, dp.Size, applied)
			}
			if err := dp.Cuts[0].Validate(); err != nil {
				t.Fatalf("trial %d: DP cut invalid: %v", trial, err)
			}
		}
	}
}

func TestPropertyGreedyFeasibleAndDominatedByDP(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		set, tree := randInstance(r)
		orig := set.Size()
		for _, bound := range []int{1, orig / 2, orig} {
			g, gErr := Greedy(set, tree, bound)
			dp, dpErr := DPSingleTreeSource(set, tree, bound, 1)
			if (gErr == nil) != (dpErr == nil) {
				// Greedy reaching the root means min achievable; both must
				// agree on feasibility because root cut is reachable by both.
				t.Fatalf("trial %d bound %d: greedy err=%v dp err=%v", trial, bound, gErr, dpErr)
			}
			if gErr != nil {
				continue
			}
			if g.Size > bound {
				t.Fatalf("greedy exceeded bound: %d > %d", g.Size, bound)
			}
			if applied := g.Apply(set).Size(); applied != g.Size {
				t.Fatalf("greedy size %d != applied %d", g.Size, applied)
			}
			if g.NumMeta > dp.NumMeta {
				t.Fatalf("greedy beat the optimal DP: %d > %d vars", g.NumMeta, dp.NumMeta)
			}
		}
	}
}

func TestGreedyOnFigure2(t *testing.T) {
	set, tree := figure2(t)
	res, err := Greedy(set, tree, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > 6 {
		t.Fatalf("greedy size %d exceeds bound", res.Size)
	}
}

func TestCompressDispatch(t *testing.T) {
	set, tree := figure2(t)
	res, err := CompressSource(set, abstraction.Forest{tree}, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 6 || res.NumMeta != 4 {
		t.Fatalf("Compress single tree: size=%d vars=%d", res.Size, res.NumMeta)
	}
	if _, err := CompressSource(set, nil, 6, 1); err == nil {
		t.Fatal("Compress with no trees should error")
	}
	if res.OriginalSize != 14 {
		t.Fatalf("OriginalSize = %d", res.OriginalSize)
	}
	if ratio := res.CompressionRatio(); ratio <= 0 || ratio > 1 {
		t.Fatalf("ratio = %v", ratio)
	}
}

// twoTreeInstance builds a two-tree instance mirroring the running example:
// a plans-like tree and a months-like tree, with monomials plan×month.
func twoTreeInstance(t testing.TB) (*polynomial.Set, abstraction.Forest) {
	t.Helper()
	names := polynomial.NewNames()
	plans, err := abstraction.FromPaths("P", names,
		[]string{"PA", "a1"}, []string{"PA", "a2"}, []string{"PB", "b1x"}, []string{"PB", "b2x"})
	if err != nil {
		t.Fatal(err)
	}
	months, err := abstraction.FromPaths("M", names,
		[]string{"Q1", "m1"}, []string{"Q1", "m2"}, []string{"Q2", "m3"}, []string{"Q2", "m4"})
	if err != nil {
		t.Fatal(err)
	}
	set := polynomial.NewSet(names)
	var b polynomial.Builder
	coef := 1.0
	for _, p := range []string{"a1", "a2", "b1x", "b2x"} {
		for _, m := range []string{"m1", "m2", "m3", "m4"} {
			pv, _ := names.Lookup(p)
			mv, _ := names.Lookup(m)
			b.Add(coef, polynomial.T(pv), polynomial.T(mv))
			coef++
		}
	}
	set.Add("g", b.Polynomial())
	return set, abstraction.Forest{plans, months}
}

func TestForestDescentMatchesExhaustive(t *testing.T) {
	set, forest := twoTreeInstance(t)
	orig := set.Size() // 16
	if orig != 16 {
		t.Fatalf("orig = %d", orig)
	}
	for _, bound := range []int{1, 2, 4, 8, 12, 16} {
		fd, fdErr := ForestDescentSource(set, forest, bound, 0, 1)
		ex, exErr := ExhaustiveForest(set, forest, bound)
		if (fdErr == nil) != (exErr == nil) {
			t.Fatalf("bound %d: fdErr=%v exErr=%v", bound, fdErr, exErr)
		}
		if fdErr != nil {
			continue
		}
		if fd.Size > bound {
			t.Fatalf("bound %d: forest descent exceeded bound (%d)", bound, fd.Size)
		}
		if applied := fd.Apply(set).Size(); applied != fd.Size {
			t.Fatalf("bound %d: size %d != applied %d", bound, fd.Size, applied)
		}
		// Coordinate descent is a heuristic: it must be feasible and not
		// beat the oracle; on this symmetric instance it should match it.
		if fd.NumMeta > ex.NumMeta {
			t.Fatalf("bound %d: descent %d vars beats oracle %d", bound, fd.NumMeta, ex.NumMeta)
		}
		if fd.NumMeta < ex.NumMeta {
			t.Logf("bound %d: descent %d vars vs oracle %d (heuristic gap)", bound, fd.NumMeta, ex.NumMeta)
		}
	}
}

func TestForestDescentInfeasible(t *testing.T) {
	set, forest := twoTreeInstance(t)
	_, err := ForestDescentSource(set, forest, 0, 0, 1)
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("want InfeasibleError, got %v", err)
	}
	if ie.MinAchievable != 1 {
		t.Fatalf("MinAchievable = %d, want 1 (single meta×meta monomial)", ie.MinAchievable)
	}
}

func TestPropertyForestDescentFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		set, tree := randInstance(r)
		// Second tree over fresh variables, attached to some monomials.
		names := set.Names
		t2 := abstraction.NewTree(fmt.Sprintf("R2x%d", trial), names)
		var l2 []polynomial.Var
		for i := 0; i < 3; i++ {
			id := t2.MustAddChild(t2.Root(), fmt.Sprintf("t2n%dx%d", i, trial))
			l2 = append(l2, t2.Node(id).Var)
		}
		for pi := range set.Polys {
			var b polynomial.Builder
			for _, m := range set.Polys[pi].Mons {
				nm := m.Clone()
				if r.Intn(2) == 0 {
					nm.Terms = append(nm.Terms, polynomial.T(l2[r.Intn(len(l2))]))
				}
				b.AddMonomial(polynomial.Mono(nm.Coef, nm.Terms...))
			}
			set.Polys[pi] = b.Polynomial()
		}
		forest := abstraction.Forest{tree, t2}
		orig := set.Size()
		for _, bound := range []int{1, orig / 2, orig} {
			fd, err := ForestDescentSource(set, forest, bound, 0, 1)
			if err != nil {
				var ie *InfeasibleError
				if errors.As(err, &ie) {
					continue
				}
				t.Fatalf("trial %d bound %d: %v", trial, bound, err)
			}
			if fd.Size > bound {
				t.Fatalf("trial %d: descent size %d > bound %d", trial, fd.Size, bound)
			}
			if applied := fd.Apply(set).Size(); applied != fd.Size {
				t.Fatalf("trial %d: size %d != applied %d", trial, fd.Size, applied)
			}
			for _, c := range fd.Cuts {
				if err := c.Validate(); err != nil {
					t.Fatalf("trial %d: invalid cut: %v", trial, err)
				}
			}
		}
	}
}

func TestExhaustiveRejectsHugeTrees(t *testing.T) {
	names := polynomial.NewNames()
	tree := abstraction.NewTree("R", names)
	// A 3-level tree with fanout 40 then 2: 40 inner, 80 leaves;
	// cuts = 1 + (1+1)^40 ... comfortably over the cap.
	for i := 0; i < 40; i++ {
		inner := tree.MustAddChild(tree.Root(), fmt.Sprintf("i%d", i))
		tree.MustAddChild(inner, fmt.Sprintf("l%da", i))
		tree.MustAddChild(inner, fmt.Sprintf("l%db", i))
	}
	set := polynomial.NewSet(names)
	if _, err := Exhaustive(set, tree, 10); err == nil {
		t.Fatal("Exhaustive should refuse trees over the cut cap")
	}
}

func TestEmptySetCompresses(t *testing.T) {
	names := polynomial.NewNames()
	tree, _ := abstraction.FromPaths("T", names, []string{"a"}, []string{"b"})
	set := polynomial.NewSet(names)
	res, err := DPSingleTreeSource(set, tree, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 0 || res.NumMeta != 2 {
		t.Fatalf("empty set: size=%d vars=%d, want 0 monomials and the leaf cut", res.Size, res.NumMeta)
	}
}

func TestResultUsedMeta(t *testing.T) {
	set, tree := figure2(t)
	// Leaf cut: 11 meta-variables defined, but only the 7 occurring leaves
	// are used (p2, y2, y3, f2 never appear in P1/P2).
	res, err := DPSingleTreeSource(set, tree, set.Size(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumMeta != 11 || res.UsedMeta != 7 {
		t.Fatalf("leaf cut: defined=%d used=%d, want 11/7", res.NumMeta, res.UsedMeta)
	}
	// Root cut: one meta, used.
	res, err = DPSingleTreeSource(set, tree, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumMeta != 1 || res.UsedMeta != 1 {
		t.Fatalf("root cut: defined=%d used=%d", res.NumMeta, res.UsedMeta)
	}
}
