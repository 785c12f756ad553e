package polynomial

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildTestSet returns a set with polys polynomials of monsEach monomials.
func buildTestSet(polys, monsEach int) *Set {
	names := NewNames()
	set := NewSet(names)
	for p := 0; p < polys; p++ {
		var b Builder
		for m := 0; m < monsEach; m++ {
			b.Add(float64(p*monsEach+m+1),
				T(names.Var(fmt.Sprintf("x%d", p%7))),
				TExp(names.Var(fmt.Sprintf("c%d", m%5)), int32(1+m%3)))
		}
		set.Add(fmt.Sprintf("g%d", p), b.Polynomial())
	}
	return set
}

func TestShardedRoundTrip(t *testing.T) {
	set := buildTestSet(40, 6)
	ss, err := BuildSharded(set, ShardOptions{TargetMonomials: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.Len() != set.Len() || ss.Size() != set.Size() {
		t.Fatalf("len/size: %d/%d vs %d/%d", ss.Len(), ss.Size(), set.Len(), set.Size())
	}
	if ss.NumShards() < 2 {
		t.Fatalf("expected multiple shards, got %d", ss.NumShards())
	}
	back, err := ss.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != set.Len() {
		t.Fatalf("materialize len %d vs %d", back.Len(), set.Len())
	}
	for i := range set.Keys {
		if back.Keys[i] != set.Keys[i] || !Equal(back.Polys[i], set.Polys[i]) {
			t.Fatalf("poly %d differs after round trip", i)
		}
	}
	if got, want := len(ss.UsedVars()), len(set.UsedVars()); got != want {
		t.Fatalf("UsedVars %d vs %d", got, want)
	}
}

func TestShardedSpillBoundsResidency(t *testing.T) {
	set := buildTestSet(60, 10) // 600 monomials
	budget := 100
	ss, err := BuildSharded(set, ShardOptions{MaxResidentMonomials: budget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.SpilledShards() == 0 {
		t.Fatal("expected spilled shards under a budget smaller than the set")
	}
	// Stream every shard twice; the peak must stay within the budget.
	for pass := 0; pass < 2; pass++ {
		total := 0
		err := ss.ForEachShard(func(i, firstPoly int, s *Set) error {
			if firstPoly != ss.PolyOffset(i) {
				return fmt.Errorf("offset mismatch at shard %d", i)
			}
			total += s.Size()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if total != set.Size() {
			t.Fatalf("streamed %d monomials, want %d", total, set.Size())
		}
	}
	if ss.PeakResidentMonomials() > budget {
		t.Fatalf("peak resident %d exceeds budget %d", ss.PeakResidentMonomials(), budget)
	}
	back, err := ss.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Keys {
		if back.Keys[i] != set.Keys[i] || !Equal(back.Polys[i], set.Polys[i]) {
			t.Fatalf("poly %d differs after spill round trip", i)
		}
	}
}

func TestShardedCloseRemovesSpillDir(t *testing.T) {
	dir := t.TempDir()
	set := buildTestSet(30, 10)
	ss, err := BuildSharded(set, ShardOptions{MaxResidentMonomials: 40, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ss.SpilledShards() == 0 {
		t.Fatal("expected spills")
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("spill dir should contain the shard dir: %v %d", err, len(entries))
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*", "*"))
	if len(left) != 0 {
		t.Fatalf("spill files left after Close: %v", left)
	}
	if err := ss.spill.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close left the spill file's descriptor open: closing it again returned %v", err)
	}
	if err := ss.ForEachShard(func(int, int, *Set) error { return nil }); err == nil {
		t.Fatal("ForEachShard after Close should error")
	}
	if err := ss.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestShardBuilderStreaming(t *testing.T) {
	names := NewNames()
	b := NewShardBuilder(names, ShardOptions{MaxResidentMonomials: 50, SpillDir: t.TempDir()})
	want := 0
	for p := 0; p < 50; p++ {
		var pb Builder
		for m := 0; m < 8; m++ {
			pb.Add(float64(m+1), T(names.Var(fmt.Sprintf("v%d", m))))
		}
		poly := pb.Polynomial()
		want += len(poly.Mons)
		if err := b.Add(fmt.Sprintf("k%d", p), poly); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := b.Finish(); err == nil {
		t.Fatal("second Finish should error")
	}
	if err := b.Add("late", Zero()); err == nil {
		t.Fatal("Add after Finish should error")
	}
	if ss.Size() != want || ss.Len() != 50 {
		t.Fatalf("size/len: %d/%d", ss.Size(), ss.Len())
	}
	if ss.PeakResidentMonomials() > 50 {
		t.Fatalf("peak %d exceeds budget", ss.PeakResidentMonomials())
	}
}

// TestShardBuilderDoesNotRetain: ShardBuilder.Add copies a polynomial
// into the open shard's slabs, so mutating the caller's terms and
// coefficients afterwards reaches neither kind of pass, whether the shard
// stayed resident or was spilled.
func TestShardBuilderDoesNotRetain(t *testing.T) {
	want := buildTestSet(20, 5)
	z := want.Names.Var("z")
	for _, spill := range []bool{false, true} {
		in := want.Clone()
		b := NewShardBuilder(want.Names, ShardOptions{TargetMonomials: 25, SpillDir: t.TempDir()})
		for i, key := range in.Keys {
			if err := b.Add(key, in.Polys[i]); err != nil {
				t.Fatal(err)
			}
			m := &in.Polys[i].Mons[0]
			m.Coef, m.Terms[0] = -1, TExp(z, 9)
		}
		ss, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		if spill {
			if err := ss.SpillAll(); err != nil {
				t.Fatal(err)
			}
		}
		viaSet, viaPacked, err := passDigests(ss)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ss.NumShards(); i++ {
			lo, hi := ss.PolyOffset(i), ss.PolyOffset(i+1)
			shard := fmt.Sprint(lo, "\n", shardDigest(&Set{Keys: want.Keys[lo:hi], Polys: want.Polys[lo:hi]}))
			if viaSet[i] != shard || viaPacked[i] != shard {
				t.Fatalf("spilled %v: shard %d does not hold what was added:\n*Set pass %s\npacked pass %s\nwant %s", spill, i, viaSet[i], viaPacked[i], shard)
			}
		}
	}
}

func TestShardedEmptyAndZeroPolys(t *testing.T) {
	names := NewNames()
	ss, err := BuildSharded(NewSet(names), ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.Len() != 0 || ss.NumShards() != 0 || ss.Size() != 0 {
		t.Fatalf("empty set: %d/%d/%d", ss.Len(), ss.NumShards(), ss.Size())
	}
	// Zero polynomials (no monomials) must still round-trip by key.
	set := NewSet(names)
	set.Add("a", Zero())
	set.Add("b", MustParse("1+x", names))
	set.Add("c", Zero())
	ss2, err := BuildSharded(set, ShardOptions{TargetMonomials: 1, MaxResidentMonomials: 2, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	back, err := ss2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || back.Keys[0] != "a" || back.Keys[2] != "c" {
		t.Fatalf("zero-poly round trip: %v", back.Keys)
	}
}

// packPieces packs want into consecutive pieces of per polynomials.
func packPieces(t *testing.T, want *Set, per int) []*PackedSet {
	t.Helper()
	var out []*PackedSet
	for lo := 0; lo < want.Len(); lo += per {
		hi := min(lo+per, want.Len())
		ps, err := PackSet(&Set{Names: want.Names, Keys: want.Keys[lo:hi], Polys: want.Polys[lo:hi]})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ps)
	}
	return out
}

// TestShardBuilderAddPacked: a packed set no larger than a shard Add seals
// becomes a shard as it is — the pass hands over the very PackedSet — and
// a larger one is re-split by Add. Either way, with and without a budget,
// the set holds what BuildSharded builds from the same polynomials, shard
// for shard, and stays within its budget.
func TestShardBuilderAddPacked(t *testing.T) {
	want := buildTestSet(20, 5) // 100 monomials; a target of 25 seals every 5 polynomials
	for _, tc := range []struct {
		name   string
		per    int
		budget int
		adopt  bool
		short  bool // pieces shorter than a shard: each stays a shard of its own
	}{
		{"adopt", 5, 0, true, false},
		{"adopt/budget", 5, 50, true, false},
		{"short-pieces", 3, 0, true, true},
		{"resplit", 10, 0, false, false},
		{"resplit/budget", 10, 50, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := ShardOptions{TargetMonomials: 25, MaxResidentMonomials: tc.budget, SpillDir: t.TempDir()}
			pieces := packPieces(t, want, tc.per)
			b := NewShardBuilder(want.Names, opts)
			for _, ps := range pieces {
				if err := b.AddPacked(ps); err != nil {
					t.Fatal(err)
				}
			}
			ss, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			if ss.Size() != want.Size() || ss.Len() != want.Len() {
				t.Fatalf("set holds %d monomials in %d polynomials, want %d in %d", ss.Size(), ss.Len(), want.Size(), want.Len())
			}
			if tc.budget > 0 && (ss.SpilledShards() == 0 || ss.PeakResidentMonomials() > tc.budget) {
				t.Fatalf("%d shards spilled, peak %d resident monomials (budget %d)", ss.SpilledShards(), ss.PeakResidentMonomials(), tc.budget)
			}
			if tc.adopt && tc.budget == 0 {
				err := ss.ForEachPackedShard(func(i, _ int, ps *PackedSet) error {
					if ps != pieces[i] {
						return fmt.Errorf("shard %d is not the PackedSet added", i)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if tc.short {
				if ss.NumShards() != len(pieces) {
					t.Fatalf("%d shards from %d pieces", ss.NumShards(), len(pieces))
				}
				m, err := ss.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				if shardDigest(m) != shardDigest(want) {
					t.Fatal("adopted pieces do not hold the set")
				}
				return
			}
			ref, err := BuildSharded(want, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			gotSet, gotPacked, err := passDigests(ss)
			if err != nil {
				t.Fatal(err)
			}
			refSet, _, err := passDigests(ref)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gotSet) != fmt.Sprint(refSet) || fmt.Sprint(gotPacked) != fmt.Sprint(refSet) {
				t.Fatalf("shards differ from BuildSharded's:\n%q\nwant\n%q", gotSet, refSet)
			}
		})
	}
}

// TestShardBuilderAddPackedMixed: AddPacked seals the shard Add left open
// first, so the polynomials keep their order; it refuses a set over
// another namespace, and a finished builder.
func TestShardBuilderAddPackedMixed(t *testing.T) {
	want := buildTestSet(12, 5)
	b := NewShardBuilder(want.Names, ShardOptions{TargetMonomials: 25})
	for i := 0; i < 2; i++ {
		if err := b.Add(want.Keys[i], want.Polys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ps := range packPieces(t, &Set{Names: want.Names, Keys: want.Keys[2:], Polys: want.Polys[2:]}, 5) {
		if err := b.AddPacked(ps); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddPacked(NewPackedSet(nil)); err == nil {
		t.Fatal("AddPacked accepted a set over another namespace")
	}
	ss, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.NumShards() != 3 {
		t.Fatalf("%d shards, want 3: the open one, then each piece", ss.NumShards())
	}
	m, err := ss.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if shardDigest(m) != shardDigest(want) {
		t.Fatal("mixed Add and AddPacked do not hold the set in order")
	}
	if err := b.AddPacked(NewPackedSet(want.Names)); err == nil {
		t.Fatal("AddPacked accepted after Finish")
	}
}
