package valuation_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// outOfCoreSources builds the telephony set three ways: in memory, as a
// ShardedSet spilled under a budget of an eighth of its size, and as the
// IndexedSet over the v3 file WriteSet(FormatBinary) writes of it.
func outOfCoreSources(tb testing.TB, customers int) (*polynomial.Set, *polynomial.ShardedSet, *polyio.IndexedSet) {
	tb.Helper()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: customers}, names)
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: set.Size() / 8, SpillDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ss.Close() })
	if ss.SpilledShards() == 0 {
		tb.Fatal("fixture did not spill")
	}
	path := filepath.Join(tb.TempDir(), "set.v3")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := polyio.WriteSetStreamV3(f, ss, polyio.V3Options{Compress: true}); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	ix, err := polyio.OpenIndexedFile(path, names)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	return set, ss, ix
}

// slider is one what-if scenario: March prices down 20 %.
func slider(names *polynomial.Names) []*valuation.Assignment {
	return []*valuation.Assignment{valuation.New(names).MustSet(telephony.MonthVar(3), 0.8)}
}

var benchSourceRows [][]float64

// BenchmarkEvalBatchSource is the layer benchmark of one scenario answered
// from each representation of the same telephony set, in ns per monomial:
// the compiled in-memory Program every row must equal, a pass over the
// spilled ShardedSet, and a pass over the compressed v3 file.
func BenchmarkEvalBatchSource(b *testing.B) {
	set, ss, ix := outOfCoreSources(b, 1_000_000)
	scenario := slider(set.Names)
	perMonomial := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(set.Size())), "ns/monomial")
	}
	b.Run("source=program", func(b *testing.B) {
		prog := valuation.Compile(set)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSourceRows = prog.EvalBatchN(scenario, benchSourceRows, 1)
		}
		perMonomial(b)
	})
	for _, tc := range []struct {
		name string
		src  polynomial.SetSource
	}{{"source=sharded", ss}, {"source=indexed", ix}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := valuation.EvalBatchSource(tc.src, scenario, 1)
				if err != nil {
					b.Fatal(err)
				}
				benchSourceRows = rows
			}
			perMonomial(b)
		})
	}
}

// TestEvalBatchSourceAllocations pins what a pass over spilled shards may
// allocate: at most 3 times per shard plus the result, never anything per
// monomial (measured: 27 over 16 shards — each shard's key block, and once
// the sweep, its dense vector and the rows). A batch of 64 scenarios, which
// runs in blocks, is held to the same bound plus two rows for each scenario
// past the first, its result and its row of a shard's values (measured:
// 156). Before the packed hand-off the one-scenario pass allocated a
// PackedSet, a *Set view and a Program per shard: 25 MB on the benchmark's
// set. Under the race detector sync.Pool drops a share of the Program's
// pooled sweeps (measured: 41 for one scenario), so the bound there is 10
// per shard; the passes over the spilled set still run.
func TestEvalBatchSourceAllocations(t *testing.T) {
	set, ss, _ := outOfCoreSources(t, 200_000)
	var batch []*valuation.Assignment
	for m := 0; m < 64; m++ {
		batch = append(batch, valuation.New(set.Names).MustSet(telephony.MonthVar(1+m%12), 0.5+float64(m)/64))
	}
	perShard := 3
	if valuation.RaceEnabled {
		perShard = 10
	}
	for _, scenarios := range [][]*valuation.Assignment{slider(set.Names), batch} {
		if _, err := valuation.EvalBatchSource(ss, scenarios, 1); err != nil { // grows the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := valuation.EvalBatchSource(ss, scenarios, 1); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(perShard*ss.NumShards() + 4 + 2*(len(scenarios)-1)); allocs > limit {
			t.Fatalf("%d scenarios over %d shards (%d monomials) allocate %.0f times, want at most %d per shard and 2 per further scenario (%.0f)",
				len(scenarios), ss.NumShards(), ss.Size(), allocs, perShard, limit)
		}
		t.Logf("%d scenarios: %.0f allocations over %d shards, %d monomials", len(scenarios), allocs, ss.NumShards(), ss.Size())
	}
}
