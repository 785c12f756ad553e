package cobra_test

import (
	"context"
	"fmt"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/polynomial"
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
// compression, application, valuation and sweeps.
func TestOptionsWorkersEdgeValues(t *testing.T) {
	names, set, tree := optionsFixture(t)
	ctx := context.Background()
	bound := set.Size() / 2
	want, err := core.CompressSource(set, cobra.Forest{tree}, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantApplied := cobra.Apply(set, cobra.Options{}, want.Cuts...)

	a := cobra.NewAssignment(names)
	if err := a.Set("m3", 0.8); err != nil {
		t.Fatal(err)
	}
	wantRows := cobra.Compile(set).EvalBatchN([]*cobra.Assignment{a}, nil, 1)

	for _, w := range []int{-7, -1, 0} {
		opts := cobra.Options{Workers: w}
		ds := openDataset(t, set, cobra.Forest{tree}, opts)
		got, err := ds.Compress(ctx, bound)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		resultsEqual(t, fmt.Sprintf("Workers=%d: Compress", w), got, want)
		if applied := cobra.Apply(set, opts, got.Cuts...); applied.String() != wantApplied.String() {
			t.Fatalf("Workers=%d: apply differs", w)
		}
		rows, err := ds.EvalBatch(ctx, []*cobra.Assignment{a})
		if err != nil {
			t.Fatalf("Workers=%d: eval: %v", w, err)
		}
		rowsEqual(t, rows, wantRows, fmt.Sprintf("Workers=%d: EvalBatch", w))
		if _, err := ds.Frontier(ctx); err != nil {
			t.Fatalf("Workers=%d: frontier: %v", w, err)
		}
		answers, err := ds.Sweep(ctx, []int{bound})
		if err != nil {
			t.Fatalf("Workers=%d: sweep: %v", w, err)
		}
		if len(answers) != 1 || answers[0].Err != nil {
			t.Fatalf("Workers=%d: sweep: %+v", w, answers)
		}
		resultsEqual(t, fmt.Sprintf("Workers=%d: Sweep", w), answers[0].Result, want)
	}
}

// TestFrontierSweepEdgeValues: empty bound batches, repeated and negative
// bounds, edge worker counts, and sharded sources must all answer exactly
// like per-bound compression — never panic or drift.
func TestFrontierSweepEdgeValues(t *testing.T) {
	_, set, tree := optionsFixture(t)
	forest := cobra.Forest{tree}
	ctx := context.Background()
	bound := set.Size() / 2
	want, err := core.CompressSource(set, forest, bound, 1)
	if err != nil {
		t.Fatal(err)
	}

	empty, err := openDataset(t, set, forest, cobra.Options{}).Sweep(ctx, nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty bounds: %v, %d answers", err, len(empty))
	}

	bounds := []int{bound, -1, bound, 0, set.Size() * 10}
	for _, w := range []int{-7, 0, 1, 8} {
		ds := openDataset(t, set, forest, cobra.Options{Workers: w})
		answers, err := ds.Sweep(ctx, bounds)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if len(answers) != len(bounds) {
			t.Fatalf("Workers=%d: %d answers for %d bounds", w, len(answers), len(bounds))
		}
		for i, a := range answers {
			cw, cwErr := ds.Compress(ctx, bounds[i])
			if (a.Err == nil) != (cwErr == nil) {
				t.Fatalf("Workers=%d bound %d: sweep err=%v compress err=%v", w, bounds[i], a.Err, cwErr)
			}
			if a.Err != nil {
				if a.Err.Error() != cwErr.Error() {
					t.Fatalf("Workers=%d bound %d: errors differ: %q vs %q", w, bounds[i], a.Err, cwErr)
				}
				continue
			}
			resultsEqual(t, fmt.Sprintf("Workers=%d bound %d: sweep against compress", w, bounds[i]), a.Result, cw)
		}
		// Repeated bounds answer consistently.
		if answers[0].Result.Size != answers[2].Result.Size || !answers[0].Result.Cuts[0].Equal(answers[2].Result.Cuts[0]) {
			t.Fatalf("Workers=%d: duplicate bounds answered differently", w)
		}
	}

	// The same sweep over the set sharded under a budget that spills.
	dsf := openDataset(t, set, forest, cobra.Options{Workers: 2, MaxResidentMonomials: set.Size() / 4, SpillDir: t.TempDir()})
	if !dsf.OutOfCore() {
		t.Fatal("a budget must shard the set")
	}
	answers, err := dsf.Sweep(ctx, []int{bound})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err != nil {
		t.Fatalf("sharded sweep: %v", answers[0].Err)
	}
	resultsEqual(t, "sharded sweep", answers[0].Result, want)
	curve, err := dsf.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := core.FrontierSourceN(set, tree, 1)
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
// must behave like the documented default — spilling disabled, an
// in-memory set kept in memory, a ShardedSet built under it fully
// resident — not panic, not spill, not truncate.
func TestOptionsResidencyEdgeValues(t *testing.T) {
	_, set, tree := optionsFixture(t)
	bound := set.Size() / 2
	want, err := core.CompressSource(set, cobra.Forest{tree}, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, -1, -1 << 30} {
		opts := cobra.Options{MaxResidentMonomials: budget, SpillDir: t.TempDir()}
		ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: budget, SpillDir: opts.SpillDir})
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if ss.SpilledShards() != 0 {
			t.Fatalf("budget=%d: spilled %d shards with spilling disabled", budget, ss.SpilledShards())
		}
		for _, src := range []cobra.SetSource{set, ss} {
			ds := openDataset(t, src, cobra.Forest{tree}, opts)
			if _, sharded := src.(*cobra.ShardedSet); ds.OutOfCore() != sharded {
				t.Fatalf("budget=%d: OutOfCore() = %v over a %T", budget, ds.OutOfCore(), src)
			}
			if ds.Len() != set.Len() || ds.Size() != set.Size() {
				t.Fatalf("budget=%d: len/size %d/%d, want %d/%d", budget, ds.Len(), ds.Size(), set.Len(), set.Size())
			}
			got, err := ds.Compress(context.Background(), bound)
			if err != nil {
				t.Fatalf("budget=%d: %v", budget, err)
			}
			resultsEqual(t, fmt.Sprintf("budget=%d %T: Compress", budget, src), got, want)
		}
	}
}

// TestShardSetEmptySet: an empty set opened in memory, sharded under a
// budget (into no shard at all) or with edge values, must give a usable
// dataset rather than panic or spill — and the streamed stages must handle
// it.
func TestShardSetEmptySet(t *testing.T) {
	names := cobra.NewNames()
	for _, opts := range []cobra.Options{{}, {MaxResidentMonomials: -3}, {MaxResidentMonomials: 4, Workers: -2}} {
		opts.SpillDir = t.TempDir()
		ds := openDataset(t, cobra.NewSet(names), nil, opts)
		if ds.OutOfCore() != (opts.MaxResidentMonomials > 0) {
			t.Fatalf("opts=%+v: OutOfCore() = %v", opts, ds.OutOfCore())
		}
		if ds.Len() != 0 || ds.Size() != 0 || len(ds.UsedVars()) != 0 {
			t.Fatalf("opts=%+v: empty set opened to len/size/vars %d/%d/%d", opts, ds.Len(), ds.Size(), len(ds.UsedVars()))
		}
		if ss := cobra.ShardedSource(ds); ss != nil {
			if ss.NumShards() != 0 || ss.SpilledShards() != 0 {
				t.Fatalf("opts=%+v: empty set sharded to shards/spilled %d/%d", opts, ss.NumShards(), ss.SpilledShards())
			}
			back, err := ss.Materialize()
			if err != nil || back.Len() != 0 {
				t.Fatalf("opts=%+v: materialize: %v len %d", opts, err, back.Len())
			}
		}
		rows, err := ds.EvalBatch(context.Background(), []*cobra.Assignment{cobra.NewAssignment(names)})
		if err != nil {
			t.Fatalf("opts=%+v: eval: %v", opts, err)
		}
		if len(rows) != 1 || len(rows[0]) != 0 {
			t.Fatalf("opts=%+v: eval rows %v", opts, rows)
		}
		if err := ds.Close(); err != nil {
			t.Fatalf("opts=%+v: close: %v", opts, err)
		}
		spillDirHoldsOnly(t, opts.SpillDir)
	}
}
