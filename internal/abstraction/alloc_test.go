package abstraction_test

import (
	"slices"
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
// monomials, five SKUs merging into one), which merges on 64-bit keys, and
// on the same with a third variable in every monomial, which takes the
// general merge. Allocation: a worker reuses its merge scratch (key table
// or accumulator, term arena) from polynomial to polynomial, so a
// polynomial a sink keeps costs its own monomial and term storage and
// nothing per monomial — ≈ 2.3 objects per polynomial measured on either
// merge, the bound is 4; merging on arrival with a fresh accumulator per
// polynomial took 19, a term slice per mapped monomial ≈ 200 — and one a
// *PackedSet takes into its slabs costs nothing. Retention: that storage
// is exactly the compressed size, so a compressed set keeps nothing
// input-sized alive.
func TestApplySourceAllocations(t *testing.T) {
	set, cut := retailShaped()
	// The same set with a third variable in every monomial: no polynomial
	// fits a 64-bit key, so every one takes the Accumulator's merge.
	region := set.Names.Var("region")
	wide := polynomial.NewSet(set.Names)
	for i, p := range set.Polys {
		mons := make([]polynomial.Monomial, len(p.Mons))
		for j, m := range p.Mons {
			mons[j] = polynomial.Monomial{Coef: m.Coef, Terms: append(slices.Clip(m.Terms), polynomial.T(region))}
		}
		if err := wide.Add(set.Keys[i], polynomial.Polynomial{Mons: mons}); err != nil {
			t.Fatal(err)
		}
	}
	var perMerge []float64
	for _, in := range []struct {
		name string
		set  *polynomial.Set
	}{{"retail", set}, {"retail, three terms", wide}} {
		sink := &discardSink{}
		allocs := testing.AllocsPerRun(3, func() {
			if err := abstraction.ApplySource(in.set, sink, 1, cut); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ApplySource, %s: %.0f allocs for %d polynomials, %d monomials", in.name, allocs, in.set.Len(), in.set.Size())
		if limit := 4 * float64(in.set.Len()); allocs > limit {
			t.Fatalf("ApplySource, %s: %.0f objects per call, want <= %.0f (4 per polynomial)", in.name, allocs, limit)
		}
		if runs := sink.polys / in.set.Len(); runs == 0 || sink.mons/runs >= in.set.Size() {
			t.Fatalf("%s: the cut merged nothing: %d monomials in, %d out over %d runs", in.name, in.set.Size(), sink.mons, runs)
		}
		perMerge = append(perMerge, allocs)
	}
	// Either merge reuses its scratch: a polynomial costs the general
	// merge what it costs the key merge, its own storage.
	if perMerge[1] > perMerge[0]+float64(set.Len())/2 {
		t.Fatalf("ApplySource allocates %.0f objects on the general merge, %.0f on 64-bit keys", perMerge[1], perMerge[0])
	}
	// A *PackedSet sink takes the merged monomials into its slabs, so what
	// a call allocates is slab growth and the mapper's scratch: it does not
	// grow with the number of polynomials.
	packedAllocs := func(s *polynomial.Set) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := abstraction.ApplySource(s, polynomial.NewPackedSet(s.Names), 1, cut); err != nil {
				t.Fatal(err)
			}
		})
	}
	quad := polynomial.NewSet(set.Names)
	for range 4 {
		for i, key := range set.Keys {
			quad.Add(key, set.Polys[i])
		}
	}
	one, four := packedAllocs(set), packedAllocs(quad)
	t.Logf("ApplySource into a *PackedSet: %.0f allocs for %d polynomials, %.0f for %d", one, set.Len(), four, quad.Len())
	if four > one+32 {
		t.Fatalf("ApplySource into a *PackedSet allocates %.0f objects for %d polynomials and %.0f for %d: it grows with the polynomials", one, set.Len(), four, quad.Len())
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
