package core

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// TestDPSingleTreePackedMatchesInMemory: the compression DP over a
// PackedSet source must be bit-identical to the pointer-form Set, for
// Workers ∈ {1, 2, 8}. The fixture is large enough to cross the
// minParallelIndexMons threshold, so the within-shard parallel signature
// scan runs over the packed view.
func TestDPSingleTreePackedMatchesInMemory(t *testing.T) {
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 30_000}, names)
	ps, err := polynomial.PackSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Size() < minParallelIndexMons {
		t.Fatalf("fixture too small: %d mons", ps.Size())
	}
	tree := telephony.PlansTree(names)
	bound := set.Size() / 2
	want, err := DPSingleTreeSource(set, tree, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		got, err := DPSingleTreeSource(ps, tree, bound, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !resultsIdentical(want, got) {
			t.Fatalf("workers=%d: packed result differs: %+v vs %+v", w, got, want)
		}
	}
}

// TestForestDescentPackedMatchesInMemory: same guarantee for coordinate
// descent over two trees, exercising reduceSource's generic-source branch
// (a PackedSet reduces through the streaming Apply into a pointer Set).
func TestForestDescentPackedMatchesInMemory(t *testing.T) {
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 30_000}, names)
	ps, err := polynomial.PackSet(set)
	if err != nil {
		t.Fatal(err)
	}
	forest := abstraction.Forest{telephony.PlansTree(names), telephony.MonthsTree(names, 12)}
	bound := set.Size() / 4
	want, err := ForestDescentSource(set, forest, bound, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		got, err := ForestDescentSource(ps, forest, bound, 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !resultsIdentical(want, got) {
			t.Fatalf("workers=%d: packed result differs: %+v vs %+v", w, got, want)
		}
	}
}
