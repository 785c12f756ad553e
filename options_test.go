package cobra_test

import (
	"context"
	"fmt"
	"testing"

	cobra "github.com/cobra-prov/cobra"
)

// optionsFixture builds a small set and tree for the edge-value sweeps.
func optionsFixture(t *testing.T) (*cobra.Names, *cobra.Set, *cobra.Tree) {
	t.Helper()
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	for z := 0; z < 40; z++ {
		// One shared month per group, so cutting the plans tree merges
		// monomials and the halved bound is feasible.
		set.Add(fmt.Sprintf("zip%d", z), cobra.MustParsePolynomial(
			fmt.Sprintf("%d*p1*m%d + %d*p2*m%d + %d*p3*m%d",
				10+z, z%12+1, 20+z, z%12+1, 30+z, z%12+1), names))
	}
	tree, err := cobra.TreeFromPaths("Plans", names,
		[]string{"Std", "p1"}, []string{"Std", "p2"}, []string{"Special", "p3"})
	if err != nil {
		t.Fatal(err)
	}
	return names, set, tree
}

// TestOptionsWorkersEdgeValues: negative and zero Workers must behave
// exactly like the documented sequential default (Workers <= 1), across
// compression, application, valuation, SQL and capture entry points.
func TestOptionsWorkersEdgeValues(t *testing.T) {
	names, set, tree := optionsFixture(t)
	bound := set.Size() / 2
	want, err := cobra.Compress(set, cobra.Forest{tree}, bound, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantApplied := cobra.Apply(set, cobra.Options{}, want.Cuts...)

	a := cobra.NewAssignment(names)
	if err := a.Set("m3", 0.8); err != nil {
		t.Fatal(err)
	}
	wantRows := cobra.EvalBatch(cobra.Compile(set), []*cobra.Assignment{a}, cobra.Options{})

	for _, w := range []int{-7, -1, 0} {
		opts := cobra.Options{Workers: w}
		got, err := cobra.Compress(set, cobra.Forest{tree}, bound, opts)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if got.Size != want.Size || !got.Cuts[0].Equal(want.Cuts[0]) {
			t.Fatalf("Workers=%d: compress differs", w)
		}
		if applied := cobra.Apply(set, opts, got.Cuts...); applied.String() != wantApplied.String() {
			t.Fatalf("Workers=%d: apply differs", w)
		}
		rows := cobra.EvalBatch(cobra.Compile(set), []*cobra.Assignment{a}, opts)
		for j := range wantRows[0] {
			if rows[0][j] != wantRows[0][j] {
				t.Fatalf("Workers=%d: eval differs at %d", w, j)
			}
		}
		if _, err := cobra.Frontier(set, tree, opts); err != nil {
			t.Fatalf("Workers=%d: frontier: %v", w, err)
		}
		answers, err := cobra.FrontierSweep(set, cobra.Forest{tree}, []int{bound}, opts)
		if err != nil {
			t.Fatalf("Workers=%d: sweep: %v", w, err)
		}
		if len(answers) != 1 || answers[0].Err != nil ||
			answers[0].Result.Size != want.Size || !answers[0].Result.Cuts[0].Equal(want.Cuts[0]) {
			t.Fatalf("Workers=%d: sweep differs: %+v", w, answers[0])
		}
	}
}

// TestFrontierSweepEdgeValues: empty bound batches, repeated and negative
// bounds, edge worker counts, and sharded sources must all answer exactly
// like per-bound compression — never panic or drift.
func TestFrontierSweepEdgeValues(t *testing.T) {
	_, set, tree := optionsFixture(t)
	forest := cobra.Forest{tree}
	bound := set.Size() / 2
	want, err := cobra.Compress(set, forest, bound, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}

	empty, err := cobra.FrontierSweep(set, forest, nil, cobra.Options{})
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty bounds: %v, %d answers", err, len(empty))
	}

	bounds := []int{bound, -1, bound, 0, set.Size() * 10}
	for _, w := range []int{-7, 0, 1, 8} {
		answers, err := cobra.FrontierSweep(set, forest, bounds, cobra.Options{Workers: w})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if len(answers) != len(bounds) {
			t.Fatalf("Workers=%d: %d answers for %d bounds", w, len(answers), len(bounds))
		}
		for i, a := range answers {
			cw, cwErr := cobra.Compress(set, forest, bounds[i], cobra.Options{Workers: w})
			if (a.Err == nil) != (cwErr == nil) {
				t.Fatalf("Workers=%d bound %d: sweep err=%v compress err=%v", w, bounds[i], a.Err, cwErr)
			}
			if a.Err != nil {
				if a.Err.Error() != cwErr.Error() {
					t.Fatalf("Workers=%d bound %d: errors differ: %q vs %q", w, bounds[i], a.Err, cwErr)
				}
				continue
			}
			if a.Result.Size != cw.Size || a.Result.NumMeta != cw.NumMeta || !a.Result.Cuts[0].Equal(cw.Cuts[0]) {
				t.Fatalf("Workers=%d bound %d: sweep %+v != compress %+v", w, bounds[i], a.Result, cw)
			}
		}
		// Repeated bounds answer consistently.
		if answers[0].Result.Size != answers[2].Result.Size || !answers[0].Result.Cuts[0].Equal(answers[2].Result.Cuts[0]) {
			t.Fatalf("Workers=%d: duplicate bounds answered differently", w)
		}
	}

	// The same sweep over a spilled sharded source.
	ss, err := cobra.ShardSet(set, cobra.Options{MaxResidentMonomials: set.Size() / 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	answers, err := cobra.FrontierSweep(ss, forest, []int{bound}, cobra.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err != nil || answers[0].Result.Size != want.Size || !answers[0].Result.Cuts[0].Equal(want.Cuts[0]) {
		t.Fatalf("sharded sweep differs: %+v", answers[0])
	}
	dsf, err := cobra.OpenDataset("sweep", ss, cobra.Forest{tree}, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := dsf.Frontier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := cobra.Frontier(set, tree, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(inMem) {
		t.Fatalf("sharded Frontier: %d points vs %d", len(curve), len(inMem))
	}
	for i := range curve {
		if curve[i].NumMeta != inMem[i].NumMeta || curve[i].MinSize != inMem[i].MinSize || !curve[i].Cut.Equal(inMem[i].Cut) {
			t.Fatalf("sharded Frontier point %d differs: %+v vs %+v", i, curve[i], inMem[i])
		}
	}
}

// TestOptionsResidencyEdgeValues: zero and negative MaxResidentMonomials
// must behave like the documented default — spilling disabled, everything
// resident — not panic, not spill, not truncate.
func TestOptionsResidencyEdgeValues(t *testing.T) {
	_, set, tree := optionsFixture(t)
	bound := set.Size() / 2
	want, err := cobra.Compress(set, cobra.Forest{tree}, bound, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, -1, -1 << 30} {
		opts := cobra.Options{MaxResidentMonomials: budget}
		ss, err := cobra.ShardSet(set, opts)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if ss.SpilledShards() != 0 {
			t.Fatalf("budget=%d: spilled %d shards with spilling disabled", budget, ss.SpilledShards())
		}
		if ss.Len() != set.Len() || ss.Size() != set.Size() {
			t.Fatalf("budget=%d: len/size %d/%d, want %d/%d", budget, ss.Len(), ss.Size(), set.Len(), set.Size())
		}
		ds, err := cobra.OpenDataset("edge", ss, cobra.Forest{tree}, opts)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		got, err := ds.Compress(context.Background(), bound)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if got.Size != want.Size || !got.Cuts[0].Equal(want.Cuts[0]) {
			t.Fatalf("budget=%d: streamed compress differs", budget)
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("budget=%d: close: %v", budget, err)
		}
	}
}

// TestShardSetEmptySet: sharding an empty set must yield a usable,
// zero-shard set rather than panicking or spilling — and the streamed
// stages must handle it.
func TestShardSetEmptySet(t *testing.T) {
	names := cobra.NewNames()
	empty := cobra.NewSet(names)
	for _, opts := range []cobra.Options{{}, {MaxResidentMonomials: -3}, {MaxResidentMonomials: 4, Workers: -2}} {
		ss, err := cobra.ShardSet(empty, opts)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		if ss.Len() != 0 || ss.Size() != 0 || ss.NumShards() != 0 || ss.SpilledShards() != 0 {
			t.Fatalf("opts=%+v: empty set sharded to len/size/shards/spilled %d/%d/%d/%d",
				opts, ss.Len(), ss.Size(), ss.NumShards(), ss.SpilledShards())
		}
		if vars := ss.UsedVars(); len(vars) != 0 {
			t.Fatalf("opts=%+v: empty set has %d used vars", opts, len(vars))
		}
		ds, err := cobra.OpenDataset("empty", ss, nil, opts)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		rows, err := ds.EvalBatch(context.Background(), []*cobra.Assignment{cobra.NewAssignment(names)})
		if err != nil {
			t.Fatalf("opts=%+v: eval: %v", opts, err)
		}
		if len(rows) != 1 || len(rows[0]) != 0 {
			t.Fatalf("opts=%+v: eval rows %v", opts, rows)
		}
		back, err := ss.Materialize()
		if err != nil || back.Len() != 0 {
			t.Fatalf("opts=%+v: materialize: %v len %d", opts, err, back.Len())
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("opts=%+v: close: %v", opts, err)
		}
	}
}
