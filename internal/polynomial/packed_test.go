package polynomial

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomTestSet builds a pointer-form Set with the shapes that stress the
// packed layout: empty polynomials, constant monomials (no terms),
// repeated variables (merged by the Builder), and multi-term monomials.
func randomTestSet(r *rand.Rand, names *Names) *Set {
	set := NewSet(names)
	nPolys := r.Intn(40)
	for pi := 0; pi < nPolys; pi++ {
		var b Builder
		nMons := r.Intn(6) // 0 leaves an empty polynomial
		for mi := 0; mi < nMons; mi++ {
			coef := float64(r.Intn(19)-9) + 0.25*float64(r.Intn(4))
			terms := make([]Term, r.Intn(4))
			for ti := range terms {
				terms[ti] = TExp(names.Var(fmt.Sprintf("v%d", r.Intn(12))), int32(1+r.Intn(3)))
			}
			b.Add(coef, terms...)
		}
		set.Add(fmt.Sprintf("k%d", pi), b.Polynomial())
	}
	return set
}

// samePackedAsSet checks bit-identity between a packed set's view and a
// pointer set: keys, monomial order, coefficient bits, and canonical term
// vectors must all coincide.
func samePackedAsSet(t *testing.T, label string, ps *PackedSet, want *Set) {
	t.Helper()
	got := ps.View()
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("%s: %d polys, want %d", label, len(got.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] {
			t.Fatalf("%s: key %d = %q, want %q", label, i, got.Keys[i], want.Keys[i])
		}
		gp, wp := got.Polys[i], want.Polys[i]
		if len(gp.Mons) != len(wp.Mons) {
			t.Fatalf("%s: poly %d has %d mons, want %d", label, i, len(gp.Mons), len(wp.Mons))
		}
		for mi := range wp.Mons {
			gm, wm := gp.Mons[mi], wp.Mons[mi]
			if math.Float64bits(gm.Coef) != math.Float64bits(wm.Coef) {
				t.Fatalf("%s: poly %d mon %d coef %v, want %v", label, i, mi, gm.Coef, wm.Coef)
			}
			if len(gm.Terms) != len(wm.Terms) {
				t.Fatalf("%s: poly %d mon %d has %d terms, want %d", label, i, mi, len(gm.Terms), len(wm.Terms))
			}
			for ti := range wm.Terms {
				if gm.Terms[ti] != wm.Terms[ti] {
					t.Fatalf("%s: poly %d mon %d term %d = %+v, want %+v", label, i, mi, ti, gm.Terms[ti], wm.Terms[ti])
				}
			}
		}
	}
}

// TestPackedRoundTripBitIdentical: packing a pointer Set and viewing it
// back must be bit-identical, and re-packing the view must reproduce the
// same slabs — for many random shapes.
func TestPackedRoundTripBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(977))
	for trial := 0; trial < 200; trial++ {
		names := NewNames()
		set := randomTestSet(r, names)
		ps, err := PackSet(set)
		if err != nil {
			t.Fatal(err)
		}
		samePackedAsSet(t, fmt.Sprintf("trial %d pack", trial), ps, set)

		// Pointer -> packed -> pointer -> packed: the second packing must
		// match the first slab-for-slab.
		ps2, err := PackSet(ps.View())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		samePackedAsSet(t, fmt.Sprintf("trial %d repack", trial), ps2, set)

		// And copying the view through the generic sink path lands on the
		// identical pointer set.
		back := NewSet(names)
		if err := Copy(ps, back); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.Len() != set.Len() {
			t.Fatalf("trial %d: copied %d polys, want %d", trial, back.Len(), set.Len())
		}
		for i := range set.Keys {
			if back.Keys[i] != set.Keys[i] || !Equal(back.Polys[i], set.Polys[i]) {
				t.Fatalf("trial %d: polynomial %d differs after round trip", trial, i)
			}
		}
	}
}

// TestPackedBuilderPathsAgree: the BeginPoly/AppendMonomial producer path
// must build the same slabs Add does.
func TestPackedBuilderPathsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	names := NewNames()
	set := randomTestSet(r, names)

	viaAdd := NewPackedSet(names)
	viaAppend := NewPackedSet(names)
	for i, key := range set.Keys {
		if err := viaAdd.Add(key, set.Polys[i]); err != nil {
			t.Fatal(err)
		}
		viaAppend.BeginPoly(key)
		for _, m := range set.Polys[i].Mons {
			viaAppend.AppendMonomial(m.Coef, m.Terms)
		}
	}
	samePackedAsSet(t, "Add", viaAdd, set)
	samePackedAsSet(t, "BeginPoly/AppendMonomial", viaAppend, set)
	if viaAdd.Size() != viaAppend.Size() || viaAdd.NumTerms() != viaAppend.NumTerms() {
		t.Fatalf("slab shapes differ: %d/%d mons, %d/%d terms",
			viaAdd.Size(), viaAppend.Size(), viaAdd.NumTerms(), viaAppend.NumTerms())
	}
}

// TestPackedAddDoesNotRetain: Add documents that the input polynomial is
// copied, so mutating the caller's storage afterwards must not reach the
// packed slabs.
func TestPackedAddDoesNotRetain(t *testing.T) {
	names := NewNames()
	terms := []Term{T(names.Var("x")), T(names.Var("y"))}
	p := Polynomial{Mons: []Monomial{{Coef: 2, Terms: terms}}}
	ps := NewPackedSet(names)
	if err := ps.Add("k", p); err != nil {
		t.Fatal(err)
	}
	terms[0] = TExp(names.Var("z"), 7)
	p.Mons[0].Coef = -1
	got := ps.View().Polys[0].Mons[0]
	if got.Coef != 2 || got.Terms[0] != T(names.Var("x")) {
		t.Fatalf("packed slab aliases caller storage: %+v", got)
	}
}

// TestPackedViewAfterAppend: a view taken before an append must not be
// what a later View returns — every View sees every monomial appended so
// far.
func TestPackedViewAfterAppend(t *testing.T) {
	names := NewNames()
	x := names.Var("x")
	ps := NewPackedSet(names)
	ps.BeginPoly("k")
	ps.AppendMonomial(1, []Term{T(x)})
	before := ps.View()
	ps.AppendMonomial(2, nil)
	after := ps.View()
	if after.Size() != ps.Size() || ps.Size() != 2 {
		t.Fatalf("View after an append holds %d monomials, the set %d, want 2", after.Size(), ps.Size())
	}
	if before.Size() != 1 || before.Polys[0].Mons[0].Coef != 1 {
		t.Fatalf("the earlier view changed under the append: %v", before)
	}
}

// FuzzPackedRoundTrip drives the round trip from fuzzed shape parameters.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		names := NewNames()
		set := randomTestSet(r, names)
		ps, err := PackSet(set)
		if err != nil {
			t.Fatal(err)
		}
		samePackedAsSet(t, "fuzz", ps, set)
		back := NewSet(names)
		if err := Copy(ps, back); err != nil {
			t.Fatal(err)
		}
		for i := range set.Keys {
			if back.Keys[i] != set.Keys[i] || !Equal(back.Polys[i], set.Polys[i]) {
				t.Fatalf("polynomial %d differs after round trip", i)
			}
		}
	})
}
