package abstraction_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// sameSet reports the first difference between two applied sets — keys,
// then every monomial's terms and coefficient bits — or "".
func sameSet(got, want *polynomial.Set) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d polynomials, want %d", got.Len(), want.Len())
	}
	for i, w := range want.Polys {
		g := got.Polys[i]
		if got.Keys[i] != want.Keys[i] || len(g.Mons) != len(w.Mons) {
			return fmt.Sprintf("polynomial %d: %q with %d monomials, want %q with %d", i, got.Keys[i], len(g.Mons), want.Keys[i], len(w.Mons))
		}
		for j, m := range w.Mons {
			if math.Float64bits(g.Mons[j].Coef) != math.Float64bits(m.Coef) || !slicesEqual(g.Mons[j].Terms, m.Terms) {
				return fmt.Sprintf("polynomial %d monomial %d: %v, want %v", i, j, g.Mons[j], m)
			}
		}
	}
	return ""
}

func slicesEqual(a, b []polynomial.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApplySourceSinksAgree: cut application gives the same polynomials,
// bit for bit, into every kind of sink — a *Set, which gets exactly-sized
// copies; a *PackedSet, which copies the mapper's scratch into its slabs;
// a budgeted ShardBuilder that spills, which copies the same scratch;
// abstraction.Apply — from an in-memory and from a spilled
// source, at every worker count. The ShardBuilder seals its shards where
// adding the same polynomials one by one does: after the polynomial that
// takes a shard to the target size.
func TestApplySourceSinksAgree(t *testing.T) {
	for _, sh := range applyShapes(t) {
		want := polynomial.NewSet(sh.set.Names)
		if err := abstraction.ApplySource(sh.set, want, 1, sh.cut); err != nil {
			t.Fatal(err)
		}
		opts := polynomial.ShardOptions{TargetMonomials: max(2, want.Size()/7), MaxResidentMonomials: max(2, want.Size()/3), SpillDir: t.TempDir()}
		// Where a ShardBuilder fed want's polynomials one by one seals.
		var seals []int
		for i, n := 0, 0; i < want.Len(); i++ {
			if n += len(want.Polys[i].Mons); n >= opts.TargetMonomials || i+1-last(seals) >= opts.TargetMonomials {
				seals, n = append(seals, i+1), 0
			}
		}
		if last(seals) != want.Len() {
			seals = append(seals, want.Len())
		}
		spilled, err := polynomial.BuildSharded(sh.set, polynomial.ShardOptions{MaxResidentMonomials: max(2, sh.set.Size()/4), SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { spilled.Close() })
		for _, w := range []int{1, 2, 8} {
			for _, src := range []struct {
				name string
				src  polynomial.SetSource
			}{{"in memory", sh.set}, {"spilled", spilled}} {
				what := fmt.Sprintf("%s, %s source, workers=%d", sh.name, src.name, w)
				kept, packed := polynomial.NewSet(sh.set.Names), polynomial.NewPackedSet(sh.set.Names)
				b := polynomial.NewShardBuilder(sh.set.Names, opts)
				for _, sink := range []polynomial.SetSink{kept, packed, b} {
					if err := abstraction.ApplySource(src.src, sink, w, sh.cut); err != nil {
						b.Discard()
						t.Fatalf("%s: %v", what, err)
					}
				}
				ss, err := b.Finish()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				built, err := ss.Materialize()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if ss.SpilledShards() == 0 || ss.NumShards() != len(seals) {
					t.Fatalf("%s: ShardBuilder sealed %d shards (%d spilled), want %d that spill", what, ss.NumShards(), ss.SpilledShards(), len(seals))
				}
				for i, end := range seals {
					if ss.PolyOffset(i+1) != end {
						t.Fatalf("%s: shard %d ends at polynomial %d, want %d", what, i, ss.PolyOffset(i+1), end)
					}
				}
				ss.Close()
				for _, got := range []struct {
					name string
					set  *polynomial.Set
				}{{"*Set", kept}, {"*PackedSet", packed.View()}, {"ShardBuilder", built}, {"Apply", abstraction.Apply(sh.set, w, sh.cut)}} {
					if diff := sameSet(got.set, want); diff != "" {
						t.Fatalf("%s, %s: %s", what, got.name, diff)
					}
				}
			}
		}
	}
}

func last(s []int) int {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}
