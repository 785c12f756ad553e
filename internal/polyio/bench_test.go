package polyio

// BenchmarkDiskFormatWrite pairs v2 against compressed v3 on the same
// spill-heavy sharded set, reporting each format's stream size as a
// disk_bytes metric. BenchmarkIndexedDecode pairs a sequential pass over the
// v3 footer index against the parallel random-access reader.

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// benchShardedSource builds the spill-heavy sharded telephony set both
// benchmarks serialize.
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

// benchCountWriter counts bytes written through it.
type benchCountWriter struct{ n int64 }

func (c *benchCountWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func BenchmarkDiskFormatWrite(b *testing.B) {
	ss := benchShardedSource(b)
	cases := []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"format=v2", func(w io.Writer) error { return WriteSetStream(w, ss) }},
		{"format=v3", func(w io.Writer) error {
			return WriteSetStreamV3(w, ss, V3Options{Compress: true})
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var bytes int64
			for i := 0; i < b.N; i++ {
				cw := &benchCountWriter{}
				if err := tc.write(cw); err != nil {
					b.Fatal(err)
				}
				bytes = cw.n
			}
			b.ReportMetric(float64(bytes), "disk_bytes")
		})
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
