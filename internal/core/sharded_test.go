package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// shardedFixture builds the telephony provenance plus a sharded copy that
// spills: the budget is far below the set size, so the compression must
// run genuinely out-of-core.
func shardedFixture(t *testing.T) (*polynomial.Set, *polynomial.ShardedSet, int) {
	t.Helper()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 30_000}, names)
	budget := set.Size() / 4
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{
		MaxResidentMonomials: budget,
		SpillDir:             t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	if ss.SpilledShards() == 0 {
		t.Fatalf("fixture did not spill (size %d, budget %d)", set.Size(), budget)
	}
	return set, ss, budget
}

func resultsIdentical(a, b *Result) bool {
	if a.Size != b.Size || a.NumMeta != b.NumMeta || a.UsedMeta != b.UsedMeta ||
		a.OriginalSize != b.OriginalSize || a.OriginalVars != b.OriginalVars ||
		len(a.Cuts) != len(b.Cuts) {
		return false
	}
	for i := range a.Cuts {
		if !a.Cuts[i].Equal(b.Cuts[i]) {
			return false
		}
	}
	return true
}

// TestDPSingleTreeShardedMatchesInMemory: the sharded DP must return the
// exact in-memory result for every worker count, while staying within the
// memory budget.
func TestDPSingleTreeShardedMatchesInMemory(t *testing.T) {
	set, ss, budget := shardedFixture(t)
	tree := telephony.PlansTree(set.Names)
	bound := set.Size() / 2
	want, err := DPSingleTreeSource(set, tree, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		got, err := DPSingleTreeSource(ss, tree, bound, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !resultsIdentical(want, got) {
			t.Fatalf("workers=%d: sharded result differs: %+v vs %+v", w, got, want)
		}
	}
	if peak := ss.PeakResidentMonomials(); peak > budget {
		t.Fatalf("peak resident %d exceeds budget %d", peak, budget)
	}
}

// TestForestDescentShardedMatchesInMemory: same guarantee for the
// coordinate-descent path over two trees.
func TestForestDescentShardedMatchesInMemory(t *testing.T) {
	set, ss, _ := shardedFixture(t)
	forest := abstraction.Forest{telephony.PlansTree(set.Names), telephony.MonthsTree(set.Names, 12)}
	bound := set.Size() / 4
	want, err := ForestDescentSource(set, forest, bound, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		got, err := ForestDescentSource(ss, forest, bound, 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !resultsIdentical(want, got) {
			t.Fatalf("workers=%d: sharded result differs: %+v vs %+v", w, got, want)
		}
	}
}

// TestCompressShardedAppliedOutput: applying the sharded result shard-at-
// a-time must materialize to exactly the in-memory compressed set, for
// every worker count.
func TestCompressShardedAppliedOutput(t *testing.T) {
	set, ss, budget := shardedFixture(t)
	tree := telephony.PlansTree(set.Names)
	bound := set.Size() / 2
	for _, w := range []int{1, 2, 8} {
		res, err := CompressSource(ss, abstraction.Forest{tree}, bound, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		want := abstraction.Apply(set, 1, res.Cuts...)
		b := polynomial.NewShardBuilder(ss.Names(), ss.Options())
		if err := abstraction.ApplySource(ss, b, w, res.Cuts...); err != nil {
			b.Discard()
			t.Fatalf("workers=%d: %v", w, err)
		}
		compressed, err := b.Finish()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got, err := compressed.Materialize()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d polys vs %d", w, got.Len(), want.Len())
		}
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] || !polynomial.Equal(got.Polys[i], want.Polys[i]) {
				t.Fatalf("workers=%d: polynomial %d differs", w, i)
			}
		}
		if peak := compressed.PeakResidentMonomials(); peak > budget {
			t.Fatalf("workers=%d: compressed peak resident %d exceeds budget %d", w, peak, budget)
		}
		compressed.Close()
	}
	// The input side stays within the budget through compress AND apply.
	if peak := ss.PeakResidentMonomials(); peak > budget {
		t.Fatalf("input peak resident %d exceeds budget %d", peak, budget)
	}
}

// TestBuildIndexShardedMultiVarError: the sharded scan must surface the
// same MultiVarError the in-memory scan reports.
func TestBuildIndexShardedMultiVarError(t *testing.T) {
	names := polynomial.NewNames()
	tree := telephony.PlansTree(names)
	set := polynomial.NewSet(names)
	set.Add("bad", polynomial.MustParse("3*p1*p2", names))
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, w := range []int{1, 8} {
		_, err := DPSingleTreeSource(ss, tree, 10, w)
		var mv *MultiVarError
		if !errors.As(err, &mv) {
			t.Fatalf("workers=%d: want MultiVarError, got %v", w, err)
		}
	}
}

// TestCompressShardedLargeSingleShard exercises the within-shard parallel
// scan path (shards above minParallelIndexMons) against the sequential
// one.
func TestCompressShardedLargeSingleShard(t *testing.T) {
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 60_000}, names)
	tree := telephony.PlansTree(names)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: set.Size()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.NumShards() != 1 || ss.Size() < minParallelIndexMons {
		t.Fatalf("fixture: %d shards, %d mons", ss.NumShards(), ss.Size())
	}
	bound := set.Size() / 2
	want, err := DPSingleTreeSource(set, tree, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		got, err := DPSingleTreeSource(ss, tree, bound, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !resultsIdentical(want, got) {
			t.Fatalf("workers=%d: differs", w)
		}
	}
}

func ExampleCompressSource() {
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 1000}, names)
	ss, _ := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: set.Size() / 2})
	defer ss.Close()
	res, _ := CompressSource(ss, abstraction.Forest{telephony.PlansTree(names)}, set.Size()/2, 4)
	fmt.Println(len(res.Cuts) == 1 && res.Size <= set.Size()/2)
	// Output: true
}
