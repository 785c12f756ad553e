package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// randForestTree grows a random tree of 3-7 nodes under the given root
// name, mirroring randInstance's shape.
func randForestTree(r *rand.Rand, names *polynomial.Names, prefix string) *abstraction.Tree {
	tree := abstraction.NewTree(prefix, names)
	ids := []abstraction.NodeID{tree.Root()}
	n := 2 + r.Intn(5)
	for i := 0; i < n; i++ {
		parent := ids[r.Intn(len(ids))]
		ids = append(ids, tree.MustAddChild(parent, fmt.Sprintf("%s_n%d", prefix, i)))
	}
	return tree
}

// randPartitionedInstance builds a random forest of 1-3 small trees over
// disjoint variables and a polynomial set in which every monomial contains
// a leaf of at most ONE tree — the condition under which the forest
// frontier's knapsack composition is exact.
func randPartitionedInstance(r *rand.Rand) (*polynomial.Set, abstraction.Forest) {
	names := polynomial.NewNames()
	forest := make(abstraction.Forest, 1+r.Intn(3))
	for i := range forest {
		forest[i] = randForestTree(r, names, fmt.Sprintf("T%d", i))
	}
	ctx := names.Vars("c0", "c1", "c2")
	set := polynomial.NewSet(names)
	groups := 1 + r.Intn(3)
	for g := 0; g < groups; g++ {
		var b polynomial.Builder
		mons := 1 + r.Intn(12)
		for m := 0; m < mons; m++ {
			coef := float64(1 + r.Intn(9))
			var terms []polynomial.Term
			if r.Intn(4) > 0 { // 75%: include one leaf of one tree
				leaves := forest[r.Intn(len(forest))].LeafVars()
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
	return set, forest
}

// bruteForestMinima enumerates EVERY combination of cuts across the forest
// and returns, per total cut-node count k, the minimal materialized
// compressed size — the trusted oracle the frontier must match exactly.
func bruteForestMinima(t *testing.T, set *polynomial.Set, forest abstraction.Forest) map[int]int {
	t.Helper()
	perTree := make([][]abstraction.Cut, len(forest))
	total := 1
	for i, tr := range forest {
		tr.EnumerateCuts(func(c abstraction.Cut) bool {
			perTree[i] = append(perTree[i], c)
			return true
		})
		total *= len(perTree[i])
		if total > 500_000 {
			t.Fatalf("instance too large for the brute-force oracle (%d combos)", total)
		}
	}
	minByK := map[int]int{}
	combo := make([]abstraction.Cut, len(forest))
	var rec func(i, k int)
	rec = func(i, k int) {
		if i == len(forest) {
			size := abstraction.Apply(set, 1, combo...).Size()
			if cur, ok := minByK[k]; !ok || size < cur {
				minByK[k] = size
			}
			return
		}
		for _, c := range perTree[i] {
			combo[i] = c
			rec(i+1, k+c.NumVars())
		}
	}
	rec(0, 0)
	return minByK
}

// checkForestCurveAgainstOracle asserts the curve reports exactly the
// oracle's per-k minima and that every reconstructed cut combination is
// valid and attains its stated size when actually applied.
func checkForestCurveAgainstOracle(t *testing.T, ctx string, set *polynomial.Set, forest abstraction.Forest, points []ForestFrontierPoint, minByK map[int]int) {
	t.Helper()
	if len(points) != len(minByK) {
		t.Fatalf("%s: frontier has %d points, oracle %d", ctx, len(points), len(minByK))
	}
	for _, p := range points {
		want, ok := minByK[p.NumMeta]
		if !ok || want != p.MinSize {
			t.Fatalf("%s k=%d: frontier %d, oracle %d (present=%v)", ctx, p.NumMeta, p.MinSize, want, ok)
		}
		if len(p.Cuts) != len(forest) {
			t.Fatalf("%s k=%d: %d cuts for %d trees", ctx, p.NumMeta, len(p.Cuts), len(forest))
		}
		k := 0
		for i, c := range p.Cuts {
			if c.Tree != forest[i] {
				t.Fatalf("%s k=%d: cut %d belongs to the wrong tree", ctx, p.NumMeta, i)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s k=%d: invalid cut %d: %v", ctx, p.NumMeta, i, err)
			}
			k += c.NumVars()
		}
		if k != p.NumMeta {
			t.Fatalf("%s: point k=%d but cuts define %d nodes", ctx, p.NumMeta, k)
		}
		if got := abstraction.Apply(set, 1, p.Cuts...).Size(); got != p.MinSize {
			t.Fatalf("%s k=%d: applied %d != MinSize %d", ctx, p.NumMeta, got, p.MinSize)
		}
	}
}

func TestFrontierForestBruteForceOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		set, forest := randPartitionedInstance(r)
		points, err := FrontierForestSource(set, forest, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		minByK := bruteForestMinima(t, set, forest)
		checkForestCurveAgainstOracle(t, fmt.Sprintf("trial %d", trial), set, forest, points, minByK)

		// A single-tree forest must agree with the single-tree frontier.
		if len(forest) == 1 {
			fr, err := FrontierSourceN(set, forest[0], 1)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(fr) != len(points) {
				t.Fatalf("trial %d: single-tree %d points vs forest %d", trial, len(fr), len(points))
			}
			for i := range fr {
				if fr[i].NumMeta != points[i].NumMeta || fr[i].MinSize != points[i].MinSize || !fr[i].Cut.Equal(points[i].Cuts[0]) {
					t.Fatalf("trial %d point %d: single %+v vs forest %+v", trial, i, fr[i], points[i])
				}
			}
		}
	}
}

// TestFrontierForestShardedOracle replays the oracle against sharded
// (spill-to-disk) sources: the curve must be bit-identical to the
// in-memory one — which the oracle already vouches for.
func TestFrontierForestShardedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		set, forest := randPartitionedInstance(r)
		want, err := FrontierForestSource(set, forest, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		minByK := bruteForestMinima(t, set, forest)
		budget := set.Size() / 4
		if budget < 2 {
			budget = 2
		}
		ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: budget, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		t.Cleanup(func() { ss.Close() }) // a failed trial leaves no spill behind
		got, err := FrontierForestSource(ss, forest, 1)
		if err != nil {
			ss.Close()
			t.Fatalf("trial %d: sharded frontier: %v", trial, err)
		}
		checkForestCurveAgainstOracle(t, fmt.Sprintf("trial %d (sharded)", trial), set, forest, got, minByK)
		if len(got) != len(want) {
			t.Fatalf("trial %d: sharded %d points vs in-memory %d", trial, len(got), len(want))
		}
		for i := range want {
			if want[i].NumMeta != got[i].NumMeta || want[i].MinSize != got[i].MinSize {
				t.Fatalf("trial %d point %d: sharded %+v vs in-memory %+v", trial, i, got[i], want[i])
			}
			for j := range want[i].Cuts {
				if !want[i].Cuts[j].Equal(got[i].Cuts[j]) {
					t.Fatalf("trial %d point %d: cut %d differs", trial, i, j)
				}
			}
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
	}
}

// TestFrontierSweepAgreesWithDPForEverySweptBound is the per-bound
// property: for a single tree, every sweep answer — result, statistics,
// and error — must be exactly what per-bound compression returns.
func TestFrontierSweepAgreesWithDPForEverySweptBound(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		set, tree := randInstance(r)
		bounds := []int{-2, -1}
		for b := 0; b <= set.Size()+2; b++ {
			bounds = append(bounds, b)
		}
		answers, err := FrontierSweepSource(set, abstraction.Forest{tree}, bounds, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(answers) != len(bounds) {
			t.Fatalf("trial %d: %d answers for %d bounds", trial, len(answers), len(bounds))
		}
		for i, a := range answers {
			bound := bounds[i]
			if a.Bound != bound {
				t.Fatalf("trial %d: answer %d echoes bound %d", trial, i, a.Bound)
			}
			want, wantErr := DPSingleTreeSource(set, tree, bound, 1)
			if (a.Err == nil) != (wantErr == nil) {
				t.Fatalf("trial %d bound %d: sweep err=%v, dp err=%v", trial, bound, a.Err, wantErr)
			}
			if wantErr != nil {
				if a.Err.Error() != wantErr.Error() {
					t.Fatalf("trial %d bound %d: errors differ:\nsweep %q\n   dp %q", trial, bound, a.Err, wantErr)
				}
				if a.Result != nil {
					t.Fatalf("trial %d bound %d: answer carries both Result and Err", trial, bound)
				}
				continue
			}
			equalResults(t, fmt.Sprintf("trial %d bound %d", trial, bound), want, a.Result)
		}
	}
}

// TestFrontierSweepForestMatchesExhaustive checks forest sweep answers
// against the exhaustive forest oracle: on partitioned instances the sweep
// must return exact optima (maximal total cut nodes, ties toward smaller
// size) for every bound, in-memory and sharded alike.
func TestFrontierSweepForestMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		set, forest := randPartitionedInstance(r)
		if len(forest) == 1 {
			continue // single-tree answers are pinned to the DP above
		}
		var bounds []int
		for b := 0; b <= set.Size()+2; b++ {
			bounds = append(bounds, b)
		}
		budget := set.Size() / 4
		if budget < 2 {
			budget = 2
		}
		ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: budget, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		t.Cleanup(func() { ss.Close() }) // a failed trial leaves no spill behind
		inMem, err := FrontierSweepSource(set, forest, bounds, 1)
		if err != nil {
			ss.Close()
			t.Fatalf("trial %d: %v", trial, err)
		}
		sharded, err := FrontierSweepSource(ss, forest, bounds, 1)
		if err != nil {
			ss.Close()
			t.Fatalf("trial %d: sharded sweep: %v", trial, err)
		}
		for i, a := range inMem {
			bound := bounds[i]
			ex, exErr := ExhaustiveForest(set, forest, bound)
			if (a.Err == nil) != (exErr == nil) {
				t.Fatalf("trial %d bound %d: sweep err=%v, exhaustive err=%v", trial, bound, a.Err, exErr)
			}
			if exErr != nil {
				var se, ee *InfeasibleError
				if !errors.As(a.Err, &se) || !errors.As(exErr, &ee) {
					t.Fatalf("trial %d bound %d: want InfeasibleError on both, got %v / %v", trial, bound, a.Err, exErr)
				}
				if se.MinAchievable != ee.MinAchievable {
					t.Fatalf("trial %d bound %d: MinAchievable sweep %d != exhaustive %d", trial, bound, se.MinAchievable, ee.MinAchievable)
				}
			} else {
				if a.Result.NumMeta != ex.NumMeta || a.Result.Size != ex.Size {
					t.Fatalf("trial %d bound %d: sweep (vars=%d,size=%d) != exhaustive (vars=%d,size=%d)",
						trial, bound, a.Result.NumMeta, a.Result.Size, ex.NumMeta, ex.Size)
				}
				if applied := abstraction.Apply(set, 1, a.Result.Cuts...).Size(); applied != a.Result.Size {
					t.Fatalf("trial %d bound %d: sweep size %d != applied %d", trial, bound, a.Result.Size, applied)
				}
			}
			// Sharded answers must be bit-identical to in-memory ones.
			sh := sharded[i]
			if (a.Err == nil) != (sh.Err == nil) {
				t.Fatalf("trial %d bound %d: sharded feasibility differs", trial, bound)
			}
			if a.Err != nil {
				if a.Err.Error() != sh.Err.Error() {
					t.Fatalf("trial %d bound %d: sharded error differs", trial, bound)
				}
				continue
			}
			equalResults(t, fmt.Sprintf("trial %d bound %d (sharded)", trial, bound), a.Result, sh.Result)
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
	}
}

func TestFrontierForestCrossTreeErrorDeterministic(t *testing.T) {
	// A large partitioned set with one coupling monomial far into the
	// scan: every worker count must report the same first offender.
	names := polynomial.NewNames()
	t1, err := abstraction.FromPaths("A", names, []string{"a1"}, []string{"a2"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := abstraction.FromPaths("B", names, []string{"b1"}, []string{"b2"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := make([]polynomial.Var, 8)
	for i := range ctx {
		ctx[i] = names.Var(fmt.Sprintf("x%d", i))
	}
	a1, _ := names.Lookup("a1")
	b1, _ := names.Lookup("b1")
	set := polynomial.NewSet(names)
	var b polynomial.Builder
	for m := 0; m < 6000; m++ {
		b.Add(float64(m+1), polynomial.T(a1), polynomial.T(ctx[m%len(ctx)]))
	}
	b.Add(2.5, polynomial.T(a1), polynomial.T(b1)) // couples trees A and B
	set.Add("g", b.Polynomial())
	forest := abstraction.Forest{t1, t2}

	var want string
	for _, w := range []int{1, 2, 8} {
		_, err := FrontierForestSource(set, forest, w)
		var ce *CrossTreeError
		if !errors.As(err, &ce) {
			t.Fatalf("workers %d: want CrossTreeError, got %v", w, err)
		}
		if ce.TreeA != 0 || ce.TreeB != 1 {
			t.Fatalf("workers %d: trees %d/%d, want 0/1", w, ce.TreeA, ce.TreeB)
		}
		if w == 1 {
			want = err.Error()
			continue
		}
		if got := err.Error(); got != want {
			t.Fatalf("workers %d: error differs:\n got %q\nwant %q", w, got, want)
		}
	}
	// The sweep surfaces the coupling as a hard error, not per-bound.
	var ce *CrossTreeError
	if _, err := FrontierSweepSource(set, forest, []int{3, 5}, 1); !errors.As(err, &ce) {
		t.Fatalf("sweep: want CrossTreeError, got %v", err)
	}
}

func TestFrontierForestMultiVarError(t *testing.T) {
	// Two leaves of the SAME tree in one monomial: the partition scan must
	// report the single-tree DP's own MultiVarError, not a CrossTreeError.
	names := polynomial.NewNames()
	t1, _ := abstraction.FromPaths("A", names, []string{"a1"}, []string{"a2"})
	t2, _ := abstraction.FromPaths("B", names, []string{"b1"}, []string{"b2"})
	set := polynomial.NewSet(names)
	set.Add("g", polynomial.MustParse("3*a1*a2", names))
	var mv *MultiVarError
	if _, err := FrontierForestSource(set, abstraction.Forest{t1, t2}, 1); !errors.As(err, &mv) {
		t.Fatalf("want MultiVarError, got %v", err)
	}
}

func TestFrontierCutInvalidFailpoint(t *testing.T) {
	defer func() { testFrontierCutNodes = nil }()
	testFrontierCutNodes = func(_ *abstraction.Tree, k int, nodes []abstraction.NodeID) []abstraction.NodeID {
		if k == 1 {
			return nil // corrupt the root cut into an empty (invalid) one
		}
		return nodes
	}

	set, tree := figure2(t)
	if _, err := FrontierSourceN(set, tree, 1); err == nil || !strings.Contains(err.Error(), "frontier cut invalid at k=1") {
		t.Fatalf("Frontier: want invalid-cut error, got %v", err)
	}
	if _, err := FrontierSweepSource(set, abstraction.Forest{tree}, []int{6}, 1); err == nil || !strings.Contains(err.Error(), "frontier cut invalid at k=1") {
		t.Fatalf("FrontierSweep: want invalid-cut error, got %v", err)
	}

	// The forest composition reconstructs through the same guard.
	names := polynomial.NewNames()
	t1, _ := abstraction.FromPaths("A", names, []string{"a1"}, []string{"a2"})
	t2, _ := abstraction.FromPaths("B", names, []string{"b1"}, []string{"b2"})
	fset := polynomial.NewSet(names)
	fset.Add("g", polynomial.MustParse("1*a1 + 2*a2 + 3*b1 + 4*b2", names))
	if _, err := FrontierForestSource(fset, abstraction.Forest{t1, t2}, 1); err == nil || !strings.Contains(err.Error(), "frontier cut invalid at k=1") {
		t.Fatalf("FrontierForest: want invalid-cut error, got %v", err)
	}
}

func TestBestForBoundTieBreak(t *testing.T) {
	// Caller-assembled lists may carry several points with the same k; the
	// pick must be the smallest MinSize among the maximal feasible k.
	pts := []FrontierPoint{
		{NumMeta: 2, MinSize: 3},
		{NumMeta: 3, MinSize: 8},
		{NumMeta: 3, MinSize: 6},
		{NumMeta: 3, MinSize: 7},
		{NumMeta: 4, MinSize: 11},
	}
	p, ok := BestForBound(pts, 9)
	if !ok || p.NumMeta != 3 || p.MinSize != 6 {
		t.Fatalf("got (%d, %d), want (3, 6)", p.NumMeta, p.MinSize)
	}
	if p, ok = BestForBound(pts, 11); !ok || p.NumMeta != 4 {
		t.Fatalf("bound 11: got (%d, %d)", p.NumMeta, p.MinSize)
	}
	if _, ok = BestForBound(pts, 2); ok {
		t.Fatal("bound 2 should fit nothing")
	}

	fpts := []ForestFrontierPoint{
		{NumMeta: 3, MinSize: 9},
		{NumMeta: 3, MinSize: 5},
		{NumMeta: 5, MinSize: 20},
	}
	fp, ok := BestForForestBound(fpts, 10)
	if !ok || fp.NumMeta != 3 || fp.MinSize != 5 {
		t.Fatalf("forest: got (%d, %d), want (3, 5)", fp.NumMeta, fp.MinSize)
	}
	if _, ok = BestForForestBound(nil, 100); ok {
		t.Fatal("empty forest curve should report no point")
	}
}

func TestFrontierSweepEmptyAndNoTrees(t *testing.T) {
	set, tree := figure2(t)
	if _, err := FrontierSweepSource(set, nil, []int{5}, 1); err == nil {
		t.Fatal("sweep with no trees should error")
	}
	answers, err := FrontierSweepSource(set, abstraction.Forest{tree}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 0 {
		t.Fatalf("empty bounds: %d answers", len(answers))
	}
}

// TestCompressPartitionedForestIsExact: on a partitioned forest Compress
// returns the exact optimum — Sweep's answer at the bound, bit for bit,
// with exhaustive search's size and meta-variable count — at every bound,
// for every worker count, in memory and sharded. Coordinate descent, which
// Compress ran on every forest before, settles for fewer variables on five
// (trial, bound) pairs of these instances, the first at trial 29, bound 21
// (3 against 5) and the last at trial 301.
func TestCompressPartitionedForestIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	spill := t.TempDir() // removed even when a trial fails before its Close
	for trial := 0; trial < 310; trial++ {
		set, forest := randPartitionedInstance(r)
		if len(forest) == 1 {
			continue
		}
		var bounds []int
		for b := -1; b <= set.Size()+1; b++ {
			bounds = append(bounds, b)
		}
		ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: max(2, set.Size()/4), SpillDir: spill})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := FrontierSweepSource(set, forest, bounds, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		minByK := bruteForestMinima(t, set, forest)
		for i, bound := range bounds {
			ctx := fmt.Sprintf("trial %d bound %d", trial, bound)
			// Exhaustive search's answer: the most cut nodes whose smallest
			// joint size fits the bound, at that size.
			exMeta, exSize := -1, 0
			for k, size := range minByK {
				if size <= bound && k > exMeta {
					exMeta, exSize = k, size
				}
			}
			if (exMeta >= 0) != (want[i].Err == nil) {
				t.Fatalf("%s: sweep err=%v, exhaustive search feasible=%v", ctx, want[i].Err, exMeta >= 0)
			}
			if exMeta >= 0 && (want[i].Result.NumMeta != exMeta || want[i].Result.Size != exSize) {
				t.Fatalf("%s: sweep (vars=%d,size=%d) != exhaustive (vars=%d,size=%d)",
					ctx, want[i].Result.NumMeta, want[i].Result.Size, exMeta, exSize)
			}
			for _, src := range []polynomial.SetSource{set, ss} {
				for _, w := range []int{1, 2, 8} {
					got, err := CompressSource(src, forest, bound, w)
					if want[i].Err != nil {
						if err == nil || err.Error() != want[i].Err.Error() {
							t.Fatalf("%s workers %d: err = %v, want %v", ctx, w, err, want[i].Err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s workers %d: %v", ctx, w, err)
					}
					equalResults(t, fmt.Sprintf("%s workers %d (%T)", ctx, w, src), want[i].Result, got)
				}
			}
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
	}
}

// TestCompressCoupledForestKeepsDescent: a forest whose trees one monomial
// couples is still answered by coordinate descent, bit for bit, and the
// partition check in front of it stops at that monomial.
func TestCompressCoupledForestKeepsDescent(t *testing.T) {
	set, forest := twoTreeInstance(t)
	if _, err := forestPartitionSource(set, forest, 1); !errors.As(err, new(*CrossTreeError)) {
		t.Fatalf("partition check on a coupled forest: %v, want a CrossTreeError", err)
	}
	for _, bound := range []int{0, 1, 2, 4, 8, 12, 16} {
		want, wantErr := ForestDescentSource(set, forest, bound, 0, 1)
		for _, w := range []int{1, 2, 8} {
			got, err := CompressSource(set, forest, bound, w)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("bound %d workers %d: err = %v, want %v", bound, w, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("bound %d workers %d: %v", bound, w, err)
			}
			equalResults(t, fmt.Sprintf("bound %d workers %d", bound, w), want, got)
		}
	}
}
