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

// TestApplySourceAllocations pins the two halves of cut application's
// memory discipline on the retail shape (1000 polynomials, ≈210 000
// monomials, five SKUs merging into one). Allocation: a worker reuses its
// accumulator and term arena from polynomial to polynomial, so a polynomial
// costs its own monomial and term storage and nothing per monomial — ≈ 2.4
// objects per polynomial measured, the bound is 4; merging on arrival with
// a fresh accumulator per polynomial took 19, a term slice per mapped
// monomial ≈ 200. Retention: that storage is exactly the compressed size,
// so a compressed set keeps nothing input-sized alive.
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
	for i, p := range abstraction.Apply(set, 1, cut).Polys {
		terms := 0
		for _, m := range p.Mons {
			terms += cap(m.Terms)
		}
		if cap(p.Mons) != len(p.Mons) || terms != p.NumTerms() {
			t.Fatalf("polynomial %d holds room for %d monomials and %d terms, has %d and %d",
				i, cap(p.Mons), terms, len(p.Mons), p.NumTerms())
		}
	}
}
