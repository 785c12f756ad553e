package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// workerTable is the worker counts the determinism tests sweep; 1 is the
// sequential reference the parallel runs must match bit-for-bit.
var workerTable = []int{1, 2, 8}

// bigRandInstance builds a seeded random instance large enough to cross the
// parallel sharding thresholds: a two-level tree with ~30 leaves and a set
// of a few polynomials totalling >> minParallelIndexMons monomials.
func bigRandInstance(r *rand.Rand) (*polynomial.Set, *abstraction.Tree) {
	names := polynomial.NewNames()
	tree := abstraction.NewTree("R", names)
	var leaves []polynomial.Var
	groups := 5 + r.Intn(3)
	for g := 0; g < groups; g++ {
		gid := tree.MustAddChild(tree.Root(), fmt.Sprintf("G%d", g))
		for l := 0; l < 4+r.Intn(3); l++ {
			id := tree.MustAddChild(gid, fmt.Sprintf("L%d_%d", g, l))
			leaves = append(leaves, tree.Node(id).Var)
		}
	}
	ctx := make([]polynomial.Var, 50)
	for i := range ctx {
		ctx[i] = names.Var(fmt.Sprintf("c%d", i))
	}
	set := polynomial.NewSet(names)
	for g := 0; g < 3; g++ {
		var b polynomial.Builder
		for m := 0; m < 3000; m++ {
			coef := 1 + r.Float64()*9
			var terms []polynomial.Term
			if r.Intn(10) > 0 { // 90%: include one tree leaf
				terms = append(terms, polynomial.TExp(leaves[r.Intn(len(leaves))], int32(1+r.Intn(2))))
			}
			terms = append(terms, polynomial.T(ctx[r.Intn(len(ctx))]))
			if r.Intn(3) == 0 {
				terms = append(terms, polynomial.T(ctx[r.Intn(len(ctx))]))
			}
			b.Add(coef, terms...)
		}
		set.Add(fmt.Sprintf("g%d", g), b.Polynomial())
	}
	return set, tree
}

// equalResults asserts two compression results choose the same abstraction.
func equalResults(t *testing.T, ctx string, seq, par *Result) {
	t.Helper()
	if seq.Size != par.Size || seq.NumMeta != par.NumMeta || seq.UsedMeta != par.UsedMeta ||
		seq.OriginalSize != par.OriginalSize || seq.OriginalVars != par.OriginalVars {
		t.Fatalf("%s: results differ: seq=%+v par=%+v", ctx, seq, par)
	}
	if len(seq.Cuts) != len(par.Cuts) {
		t.Fatalf("%s: cut counts differ", ctx)
	}
	for i := range seq.Cuts {
		if !seq.Cuts[i].Equal(par.Cuts[i]) {
			t.Fatalf("%s: cut %d differs: seq=%s par=%s", ctx, i, seq.Cuts[i], par.Cuts[i])
		}
	}
}

// equalSets asserts exact (bitwise coefficient) equality of two sets.
func equalSets(t *testing.T, ctx string, a, b *polynomial.Set) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: lengths differ: %d vs %d", ctx, a.Len(), b.Len())
	}
	for i := range a.Polys {
		if a.Keys[i] != b.Keys[i] {
			t.Fatalf("%s: key %d differs", ctx, i)
		}
		if !polynomial.Equal(a.Polys[i], b.Polys[i]) {
			t.Fatalf("%s: polynomial %q differs", ctx, a.Keys[i])
		}
	}
}

func TestDPSingleTreeWorkersIdentical(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		set, tree := bigRandInstance(r)
		for _, bound := range []int{set.Size() / 4, set.Size() / 2, set.Size()} {
			seq, seqErr := DPSingleTreeSource(set, tree, bound, 1)
			var seqApplied *polynomial.Set
			if seqErr == nil {
				seqApplied = seq.Apply(set)
			}
			for _, w := range workerTable[1:] {
				ctx := fmt.Sprintf("trial %d bound %d workers %d", trial, bound, w)
				par, parErr := DPSingleTreeSource(set, tree, bound, w)
				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("%s: seqErr=%v parErr=%v", ctx, seqErr, parErr)
				}
				if seqErr != nil {
					if seqErr.Error() != parErr.Error() {
						t.Fatalf("%s: errors differ: %q vs %q", ctx, seqErr, parErr)
					}
					continue
				}
				equalResults(t, ctx, seq, par)
				equalSets(t, ctx, seqApplied, abstraction.Apply(set, w, par.Cuts...))
			}
		}
	}
}

func TestFrontierWorkersIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	set, tree := bigRandInstance(r)
	seq, err := FrontierSourceN(set, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerTable[1:] {
		par, err := FrontierSourceN(set, tree, w)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if len(seq) != len(par) {
			t.Fatalf("workers %d: %d points vs %d", w, len(par), len(seq))
		}
		for i := range seq {
			if seq[i].NumMeta != par[i].NumMeta || seq[i].MinSize != par[i].MinSize || !seq[i].Cut.Equal(par[i].Cut) {
				t.Fatalf("workers %d: point %d differs: seq=%+v par=%+v", w, i, seq[i], par[i])
			}
		}
	}
}

// bigPartitionedForest extends bigRandInstance with a second tree over
// fresh variables used only in NEW polynomial groups, so every monomial
// touches at most one tree — the partitioned shape the forest frontier
// requires — while both trees' scans cross the parallel thresholds.
func bigPartitionedForest(r *rand.Rand) (*polynomial.Set, abstraction.Forest) {
	set, t1 := bigRandInstance(r)
	names := set.Names
	t2 := abstraction.NewTree("R2", names)
	var l2 []polynomial.Var
	for g := 0; g < 3; g++ {
		gid := t2.MustAddChild(t2.Root(), fmt.Sprintf("K%d", g))
		for l := 0; l < 3; l++ {
			id := t2.MustAddChild(gid, fmt.Sprintf("k%d_%d", g, l))
			l2 = append(l2, t2.Node(id).Var)
		}
	}
	ctx := make([]polynomial.Var, 50)
	for i := range ctx {
		ctx[i] = names.Var(fmt.Sprintf("c%d", i)) // shared with bigRandInstance
	}
	for g := 0; g < 2; g++ {
		var b polynomial.Builder
		for m := 0; m < 3000; m++ {
			b.Add(1+r.Float64()*9,
				polynomial.TExp(l2[r.Intn(len(l2))], int32(1+r.Intn(2))),
				polynomial.T(ctx[r.Intn(len(ctx))]))
		}
		set.Add(fmt.Sprintf("h%d", g), b.Polynomial())
	}
	return set, abstraction.Forest{t1, t2}
}

// equalForestCurves asserts two forest-level curves are bit-identical.
func equalForestCurves(t *testing.T, ctx string, seq, par []ForestFrontierPoint) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d points vs %d", ctx, len(par), len(seq))
	}
	for i := range seq {
		if seq[i].NumMeta != par[i].NumMeta || seq[i].MinSize != par[i].MinSize {
			t.Fatalf("%s: point %d differs: seq=%+v par=%+v", ctx, i, seq[i], par[i])
		}
		if len(seq[i].Cuts) != len(par[i].Cuts) {
			t.Fatalf("%s: point %d cut counts differ", ctx, i)
		}
		for j := range seq[i].Cuts {
			if !seq[i].Cuts[j].Equal(par[i].Cuts[j]) {
				t.Fatalf("%s: point %d cut %d differs: seq=%s par=%s",
					ctx, i, j, seq[i].Cuts[j], par[i].Cuts[j])
			}
		}
	}
}

// TestFrontierForestWorkersIdentical extends the determinism table to the
// forest frontier: the composed curve must be bit-identical for Workers ∈
// {1, 2, 8}, over in-memory, packed and sharded sources alike. The packed
// source solves its trees concurrently, as a Set does.
func TestFrontierForestWorkersIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	set, forest := bigPartitionedForest(r)
	seq, err := FrontierForestSource(set, forest, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerTable[1:] {
		par, err := FrontierForestSource(set, forest, w)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		equalForestCurves(t, fmt.Sprintf("workers %d", w), seq, par)
	}
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: set.Size() / 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, w := range workerTable {
		par, err := FrontierForestSource(ss, forest, w)
		if err != nil {
			t.Fatalf("sharded workers %d: %v", w, err)
		}
		equalForestCurves(t, fmt.Sprintf("sharded workers %d", w), seq, par)
	}
	ps, err := polynomial.PackSet(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerTable {
		par, err := FrontierForestSource(ps, forest, w)
		if err != nil {
			t.Fatalf("packed workers %d: %v", w, err)
		}
		equalForestCurves(t, fmt.Sprintf("packed workers %d", w), seq, par)
	}
}

// TestFrontierSourceNWorkersIdentical pins FrontierSourceN over a sharded
// single-tree source to the sequential in-memory curve for every worker
// count.
func TestFrontierSourceNWorkersIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	set, tree := bigRandInstance(r)
	seq, err := FrontierSourceN(set, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: set.Size() / 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, w := range workerTable {
		par, err := FrontierSourceN(ss, tree, w)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if len(seq) != len(par) {
			t.Fatalf("workers %d: %d points vs %d", w, len(par), len(seq))
		}
		for i := range seq {
			if seq[i].NumMeta != par[i].NumMeta || seq[i].MinSize != par[i].MinSize || !seq[i].Cut.Equal(par[i].Cut) {
				t.Fatalf("workers %d: point %d differs: seq=%+v par=%+v", w, i, seq[i], par[i])
			}
		}
	}
}

// TestFrontierSweepWorkersIdentical extends the determinism table to the
// sweep: every answer — result and error alike — must be bit-identical for
// Workers ∈ {1, 2, 8} on both the single-tree and forest paths.
func TestFrontierSweepWorkersIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	set, forest := bigPartitionedForest(r)
	size := set.Size()
	bounds := []int{-1, 0, size / 8, size / 4, size / 2, size * 3 / 4, size, size * 2}
	for _, trees := range []abstraction.Forest{{forest[0]}, forest} {
		seq, err := FrontierSweepSource(set, trees, bounds, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerTable[1:] {
			par, err := FrontierSweepSource(set, trees, bounds, w)
			if err != nil {
				t.Fatalf("trees %d workers %d: %v", len(trees), w, err)
			}
			for i := range seq {
				ctx := fmt.Sprintf("trees %d workers %d bound %d", len(trees), w, bounds[i])
				if (seq[i].Err == nil) != (par[i].Err == nil) {
					t.Fatalf("%s: seqErr=%v parErr=%v", ctx, seq[i].Err, par[i].Err)
				}
				if seq[i].Err != nil {
					if seq[i].Err.Error() != par[i].Err.Error() {
						t.Fatalf("%s: errors differ: %q vs %q", ctx, seq[i].Err, par[i].Err)
					}
					continue
				}
				equalResults(t, ctx, seq[i].Result, par[i].Result)
			}
		}
	}
}

func TestForestDescentWorkersIdentical(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		r := rand.New(rand.NewSource(int64(200 + trial)))
		set, tree := bigRandInstance(r)
		// Second tree over fresh variables woven into half the monomials.
		names := set.Names
		t2 := abstraction.NewTree("R2", names)
		var l2 []polynomial.Var
		for g := 0; g < 2; g++ {
			gid := t2.MustAddChild(t2.Root(), fmt.Sprintf("H%d", g))
			for l := 0; l < 3; l++ {
				id := t2.MustAddChild(gid, fmt.Sprintf("h%d_%d", g, l))
				l2 = append(l2, t2.Node(id).Var)
			}
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
		for _, bound := range []int{set.Size() / 4, set.Size() / 2} {
			seq, seqErr := ForestDescentSource(set, forest, bound, 0, 1)
			for _, w := range workerTable[1:] {
				ctx := fmt.Sprintf("trial %d bound %d workers %d", trial, bound, w)
				par, parErr := ForestDescentSource(set, forest, bound, 0, w)
				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("%s: seqErr=%v parErr=%v", ctx, seqErr, parErr)
				}
				if seqErr != nil {
					continue
				}
				equalResults(t, ctx, seq, par)
			}
		}
	}
}

func TestBuildIndexShardedFirstErrorDeterministic(t *testing.T) {
	// An instance whose scan hits a multi-leaf monomial: every worker count
	// must report the same (first-in-scan-order) offending monomial.
	names := polynomial.NewNames()
	tree := abstraction.NewTree("R", names)
	a := tree.MustAddChild(tree.Root(), "la")
	bNode := tree.MustAddChild(tree.Root(), "lb")
	va, vb := tree.Node(a).Var, tree.Node(bNode).Var
	ctx := make([]polynomial.Var, 8)
	for i := range ctx {
		ctx[i] = names.Var(fmt.Sprintf("x%d", i))
	}
	set := polynomial.NewSet(names)
	var b polynomial.Builder
	for m := 0; m < 6000; m++ {
		b.Add(float64(m+1), polynomial.T(va), polynomial.T(ctx[m%len(ctx)]), polynomial.TExp(ctx[(m+3)%len(ctx)], 2))
	}
	// Offending monomial with both leaves, far into the scan.
	b.Add(3.5, polynomial.T(va), polynomial.T(vb))
	set.Add("g", b.Polynomial())

	var want string
	for _, w := range workerTable {
		_, err := buildIndexSource(set, tree, w)
		var mv *MultiVarError
		if !errors.As(err, &mv) {
			t.Fatalf("workers %d: want MultiVarError, got %v", w, err)
		}
		if w == 1 {
			want = mv.Error()
			continue
		}
		if got := mv.Error(); got != want {
			t.Fatalf("workers %d: error differs:\n got %q\nwant %q", w, got, want)
		}
	}
}

func TestCompressSourceWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	set, tree := bigRandInstance(r)
	bound := set.Size() / 2
	seq, err := CompressSource(set, abstraction.Forest{tree}, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompressSource(set, abstraction.Forest{tree}, bound, 8)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "problem workers", seq, par)
}
