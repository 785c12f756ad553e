package polyio

// BenchmarkSetCodec is the interchange layer: encode and decode throughput
// of every format WriteSet writes and ReadSet reads. BenchmarkIndexedDecode
// pairs a sequential pass over the v3 footer index against the parallel
// random-access reader.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// benchShardedSource builds the spill-heavy sharded telephony set
// BenchmarkIndexedDecode serializes.
func benchShardedSource(b *testing.B) *polynomial.ShardedSet {
	b.Helper()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 50_000}, names)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: set.Size() / 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ss.Close() })
	return ss
}

// BenchmarkSetCodec is the encode/decode layer row per interchange format:
// the same telephony set through WriteSet and ReadSet as text, JSON and
// binary (v3), in MB/s of the format's own bytes, plus decode-only rows for
// the checked-in v1 and v2 files, which nothing writes any more.
func BenchmarkSetCodec(b *testing.B) {
	set := telephony.DirectProvenance(telephony.Config{Customers: 50_000}, polynomial.NewNames())
	decode := func(data []byte) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, _, err := ReadSet(bytes.NewReader(data), nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, f := range []Format{FormatText, FormatJSON, FormatBinary} {
		var enc bytes.Buffer
		if err := WriteSet(&enc, set, f); err != nil {
			b.Fatal(err)
		}
		b.Run("encode/format="+string(f), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(enc.Len()))
			for i := 0; i < b.N; i++ {
				if err := WriteSet(io.Discard, set, f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/format="+string(f), decode(enc.Bytes()))
	}
	for _, fx := range loadFixtures(b, "legacy") {
		if fx.name == "v1-exponents" || fx.name == "v2-exponents" {
			b.Run("decode/legacy="+fx.name, decode(fx.data))
		}
	}
}

func BenchmarkIndexedDecode(b *testing.B) {
	ss := benchShardedSource(b)
	path := filepath.Join(b.TempDir(), "set.v3")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteSetStreamV3(f, ss, V3Options{Compress: true}); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	ix, err := OpenIndexedFile(path, ss.Names())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	want := ix.Size()
	decode := func(b *testing.B, pass func(func(i, firstPoly int, s *polynomial.Set) error) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mons := 0
			err := pass(func(_, _ int, s *polynomial.Set) error {
				mons += s.Size()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if mons != want {
				b.Fatalf("decoded %d monomials, want %d", mons, want)
			}
		}
	}
	b.Run("mode=sequential", func(b *testing.B) {
		decode(b, ix.ForEachShard)
	})
	b.Run("mode=parallel", func(b *testing.B) {
		// On a single-core runner the parallel leg still exercises the
		// reorder window with two goroutines.
		w := max(2, runtime.GOMAXPROCS(0))
		decode(b, func(fn func(i, firstPoly int, s *polynomial.Set) error) error {
			return ix.ForEachShardParallel(w, fn)
		})
	})
}
