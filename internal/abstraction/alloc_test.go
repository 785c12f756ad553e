package abstraction_test

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// discardSink is a sink that is already as large as it will get: it keeps
// nothing, so what AllocsPerRun counts is the cut application alone.
type discardSink struct{ polys, mons int }

func (d *discardSink) Add(_ string, p polynomial.Polynomial) error {
	d.polys++
	d.mons += len(p.Mons)
	return nil
}

// TestApplySourceAllocations pins the invariant PR 14's slab-based cut
// application established: remapping carves monomials and terms from
// per-run slabs, so it allocates a bounded number of objects per polynomial
// — not one per monomial. On the retail shape (1000 polynomials, ≈210 000
// monomials, five SKUs merging into one) it measures ≈ 3.3 per polynomial
// and the bound is 4; a term slice per mapped monomial was ≈ 200.
func TestApplySourceAllocations(t *testing.T) {
	set, cut := retailShaped()
	sink := &discardSink{}
	allocs := testing.AllocsPerRun(3, func() {
		if err := abstraction.ApplySource(set, sink, 1, cut); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ApplySource: %.0f allocs for %d polynomials, %d monomials", allocs, set.Len(), set.Size())
	if limit := 4 * float64(set.Len()); allocs > limit {
		t.Fatalf("ApplySource allocates %.0f objects per call, want <= %.0f (4 per polynomial)", allocs, limit)
	}
	if runs := sink.polys / set.Len(); runs == 0 || sink.mons/runs >= set.Size() {
		t.Fatalf("the cut merged nothing: %d monomials in, %d out over %d runs", set.Size(), sink.mons, runs)
	}
}
