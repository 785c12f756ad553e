package polynomial

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// telephonyShaped builds a seeded set of the running example's shape: one
// polynomial per zip code of 11 plans × 12 months two-term monomials
// coef·plan·month over 23 variables (1055 zips is the benchmark's 139 260
// monomials). The real generator imports this package, so the shape is
// rebuilt here.
func telephonyShaped(zips int) *Set {
	r := rand.New(rand.NewSource(1))
	names := NewNames()
	plans := make([]Var, 11)
	for i := range plans {
		plans[i] = names.Var(fmt.Sprintf("p%d", i+1))
	}
	months := make([]Var, 12)
	for i := range months {
		months[i] = names.Var(fmt.Sprintf("m%d", i+1))
	}
	set := NewSet(names)
	set.Grow(zips)
	for z := 0; z < zips; z++ {
		var b Builder
		for _, p := range plans {
			for _, m := range months {
				b.Add(float64(1+r.Intn(90000))/100, T(p), T(m))
			}
		}
		if err := set.Add(fmt.Sprintf("zip%05d", 10000+z), b.Polynomial()); err != nil {
			panic(err)
		}
	}
	return set
}

// mustPack packs s for the spill encoder, which writes a shard's slabs.
func mustPack(tb testing.TB, s *Set) *PackedSet {
	ps, err := PackSet(s)
	if err != nil {
		tb.Fatal(err)
	}
	return ps
}

var benchSpillBuf []byte

// BenchmarkSpillCodec is the layer benchmark of the spill record format,
// in MB of record per second: encoding a shard from its slabs, decoding it
// from memory (a bytes.Reader, so no system call is timed) into reused
// slabs (what ForEachPackedShard does per spilled shard), and that plus a
// *Set view over them (what ForEachShard does).
func BenchmarkSpillCodec(b *testing.B) {
	shard := telephonyShaped(66) // 8 712 monomials: one shard of the benchmark's set
	packed := mustPack(b, shard)
	data, err := encodeShardPayload(nil, packed)
	if err != nil {
		b.Fatal(err)
	}
	r, n := bytes.NewReader(data), int64(len(data))
	var dec spillDecoder
	b.Run("op=encode", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchSpillBuf, err = encodeShardPayload(benchSpillBuf[:0], packed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("op=decode", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		ps := new(PackedSet)
		for i := 0; i < b.N; i++ {
			if err := dec.decode(r, 0, n, shard.Names, ps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("op=decode+view", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		ps := new(PackedSet)
		for i := 0; i < b.N; i++ {
			if err := dec.decode(r, 0, n, shard.Names, ps); err != nil {
				b.Fatal(err)
			}
			if ps.View().Size() != shard.Size() {
				b.Fatal("short view")
			}
		}
	})
}

// BenchmarkShardedPass times one pass over the benchmark's telephony set
// spilled under a budget of an eighth of its size, in ns per monomial and
// in MB of spill file read per second (from the set's SpillIO counter): the
// *Set pass (a view of every shard, a spilled one decoded into the set's
// scratch first) and the packed pass (a resident shard as it is, a spilled
// one decoded into the scratch).
func BenchmarkShardedPass(b *testing.B) {
	set := telephonyShaped(1055)
	ss, err := BuildSharded(set, ShardOptions{MaxResidentMonomials: set.Size() / 8, SpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	count := func(mons *int) func(_, _ int, s *Set) error {
		return func(_, _ int, s *Set) error {
			*mons += s.Size()
			return nil
		}
	}
	run := func(name string, pass func(mons *int) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			before := ss.SpillIO()
			for i := 0; i < b.N; i++ {
				mons := 0
				if err := pass(&mons); err != nil {
					b.Fatal(err)
				}
				if mons != set.Size() {
					b.Fatalf("pass saw %d monomials, want %d", mons, set.Size())
				}
			}
			b.SetBytes((ss.SpillIO().BytesRead - before.BytesRead) / int64(b.N))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(set.Size())), "ns/monomial")
		})
	}
	run("pass=set", func(mons *int) error { return ss.ForEachShard(count(mons)) })
	run("pass=packed", func(mons *int) error {
		return ss.ForEachPackedShard(func(_, _ int, ps *PackedSet) error {
			*mons += ps.Size()
			return nil
		})
	})
}
