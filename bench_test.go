package cobra_test

// One benchmark per experiment in the internal/experiments index (E1–E10, plus the
// E14 out-of-core, E15 streaming-capture and E16 frontier-sweep runs),
// plus micro-benchmarks for the ablations (compiled vs naive evaluation,
// DP vs greedy) and the paired sweep-vs-recompress comparison. The experiment benches run the same runners as cmd/cobra-bench
// at a benchmark-friendly scale; run cmd/cobra-bench -scale paper for the
// paper-scale numbers recorded in EXPERIMENTS.md.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/experiments"
	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// benchConfig keeps experiment benches fast enough for -bench=. sweeps.
func benchConfig() experiments.Config {
	return experiments.Config{TelephonyCustomers: 50_000, TPCHSF: 0.002}.WithDefaults()
}

func runExperiment(b *testing.B, run func(experiments.Config) (*experiments.Table, error)) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_RunningExampleProvenance(b *testing.B) {
	runExperiment(b, experiments.E1RunningExample)
}

func BenchmarkE2_ExampleCuts(b *testing.B) {
	runExperiment(b, experiments.E2ExampleCuts)
}

func BenchmarkE3_Section4Compression(b *testing.B) {
	runExperiment(b, experiments.E3Section4)
}

func BenchmarkE4_BoundSweep(b *testing.B) {
	runExperiment(b, experiments.E4BoundSweep)
}

func BenchmarkE5_AssignmentSpeedup(b *testing.B) {
	runExperiment(b, experiments.E5SpeedupSweep)
}

func BenchmarkE6_ScenarioAccuracy(b *testing.B) {
	runExperiment(b, experiments.E6ScenarioAccuracy)
}

func BenchmarkE7_AlgorithmScaling(b *testing.B) {
	cfg := benchConfig()
	cfg.Quick = true // the full scaling sweep reaches 1M customers
	cfg = cfg.WithDefaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7AlgorithmScaling(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_Ablation(b *testing.B) {
	runExperiment(b, experiments.E7Ablation)
}

func BenchmarkE8_TPCH(b *testing.B) {
	runExperiment(b, experiments.E8TPCH)
}

func BenchmarkE9_Commutation(b *testing.B) {
	cfg := benchConfig()
	cfg.Quick = true // re-execution materializes the join; keep it small
	cfg = cfg.WithDefaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9Commutation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_Pipeline(b *testing.B) {
	runExperiment(b, experiments.E10Pipeline)
}

func BenchmarkE14_OutOfCore(b *testing.B) {
	runExperiment(b, experiments.E14OutOfCore)
}

func BenchmarkE15_StreamingCapture(b *testing.B) {
	runExperiment(b, experiments.E15StreamingCapture)
}

func BenchmarkE16_FrontierSweep(b *testing.B) {
	runExperiment(b, experiments.E16FrontierSweep)
}

func BenchmarkE17_DiskFormat(b *testing.B) {
	runExperiment(b, experiments.E17DiskFormat)
}

// --- on-disk format pairs -------------------------------------------------
//
// BenchmarkDiskFormatWrite pairs v2 against compressed v3 on the same
// spill-heavy sharded set, reporting each format's stream size as a
// disk_bytes metric; scripts/bench.sh derives the v3/v2 byte ratio from
// the pair. BenchmarkIndexedDecode pairs a sequential pass over the v3
// footer index against the parallel random-access reader (mode= naming,
// like BoundSweep32's pair).

// benchShardedSource builds the spill-heavy sharded telephony set the
// disk-format pairs serialize.
func benchShardedSource(b *testing.B) *polynomial.ShardedSet {
	b.Helper()
	names := cobra.NewNames()
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
		{"format=v2", func(w io.Writer) error { return polyio.WriteSetStream(w, ss) }},
		{"format=v3", func(w io.Writer) error {
			return polyio.WriteSetStreamV3(w, ss, polyio.V3Options{Compress: true})
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
	if err := polyio.WriteSetStreamV3(f, ss, polyio.V3Options{Compress: true}); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	ix, err := polyio.OpenIndexedFile(path, ss.Names())
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
		w := workerSweep()[1]
		decode(b, func(fn func(i, firstPoly int, s *polynomial.Set) error) error {
			return ix.ForEachShardParallel(w, fn)
		})
	})
}

// --- micro-benchmarks for the ablations ----------------------------------

// benchSet builds the telephony provenance at a fixed moderate scale.
func benchSet(b *testing.B) (*cobra.Set, *cobra.Tree) {
	b.Helper()
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 100_000}, names)
	return set, telephony.PlansTree(names)
}

func BenchmarkCompressDP(b *testing.B) {
	set, tree := benchSet(b)
	bound := set.Size() * 2 / 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DPSingleTree(set, tree, bound); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressGreedy(b *testing.B) {
	set, tree := benchSet(b)
	bound := set.Size() * 2 / 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Greedy(set, tree, bound); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyCut(b *testing.B) {
	set, tree := benchSet(b)
	res, err := core.DPSingleTree(set, tree, set.Size()/3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Apply(set)
	}
}

func BenchmarkEvalNaive(b *testing.B) {
	set, _ := benchSet(b)
	a := valuation.New(set.Names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		valuation.EvalSet(set, a)
	}
}

func BenchmarkEvalCompiled(b *testing.B) {
	set, _ := benchSet(b)
	prog := valuation.Compile(set)
	vals := valuation.New(set.Names).Dense(set.Names.Len())
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = prog.Eval(vals, out)
	}
}

func BenchmarkEvalCompiledCompressed(b *testing.B) {
	set, tree := benchSet(b)
	res, err := core.DPSingleTree(set, tree, set.Size()*36/132) // the S1-like cut
	if err != nil {
		b.Fatal(err)
	}
	prog := valuation.Compile(res.Apply(set))
	vals := valuation.New(set.Names).Dense(set.Names.Len())
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = prog.Eval(vals, out)
	}
}

func BenchmarkPolynomialAdd(b *testing.B) {
	set, _ := benchSet(b)
	p, q := set.Polys[0], set.Polys[len(set.Polys)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cobra.AddPolynomials(p, q)
	}
}

func BenchmarkPolynomialMul(b *testing.B) {
	names := cobra.NewNames()
	p := cobra.MustParsePolynomial("1 + 2*a + 3*b + 4*a*b + 5*c^2 + 6*a*c + 7*b*c + 8*d", names)
	q := cobra.MustParsePolynomial("2 + 3*d + 5*e + 7*a*e + 11*b*d + 13*c*d*e", names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cobra.MulPolynomials(p, q)
	}
}

func BenchmarkSensitivity(b *testing.B) {
	set, _ := benchSet(b)
	a := valuation.New(set.Names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = valuation.Sensitivity(set, a)
	}
}

func BenchmarkEvalBatch100Scenarios(b *testing.B) {
	set, _ := benchSet(b)
	prog := valuation.Compile(set)
	var scenarios []*valuation.Assignment
	for s := 0; s < 100; s++ {
		a := valuation.New(set.Names)
		a.SetVar(cobra.Var(s%set.Names.Len()), 0.8)
		scenarios = append(scenarios, a)
	}
	var out [][]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = prog.EvalBatch(scenarios, out)
	}
}

// --- parallel-vs-sequential pairs ----------------------------------------
//
// Each pair runs the same workload under workers=1 and workers=GOMAXPROCS;
// scripts/bench.sh derives the speedup numbers from the paired timings (or
// run cmd/cobra-bench -only E12 for a self-contained speedup table). The
// parallel engine guarantees bit-identical results, so the pairs measure
// pure scheduling gain.

// workerSweep is {sequential, saturated}; on a single-core runner the
// "parallel" leg still exercises the pool code with two goroutines.
func workerSweep() []int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return []int{1, w}
}

func BenchmarkCompressDPWorkers(b *testing.B) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 500_000}, names)
	tree := telephony.PlansTree(names)
	bound := set.Size() / 2
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.DPSingleTreeN(set, tree, bound, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkForestDescentWorkers(b *testing.B) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 200_000}, names)
	forest := abstraction.Forest{telephony.PlansTree(names), telephony.MonthsTree(names, 12)}
	bound := set.Size() / 4
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ForestDescentN(set, forest, bound, 0, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkApplyCutWorkers(b *testing.B) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 500_000}, names)
	tree := telephony.PlansTree(names)
	res, err := core.DPSingleTree(set, tree, set.Size()/3)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				abstraction.ApplyN(set, w, res.Cuts...)
			}
		})
	}
}

func BenchmarkEvalBatchWorkers(b *testing.B) {
	set, _ := benchSet(b)
	prog := valuation.Compile(set)
	vars := set.UsedVars()
	scenarios := make([]*valuation.Assignment, 256)
	for s := range scenarios {
		a := valuation.New(set.Names)
		a.SetVar(vars[s%len(vars)], 0.8)
		scenarios[s] = a
	}
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var out [][]float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = prog.EvalBatchN(scenarios, out, w)
			}
		})
	}
}

// TestWorkerAllocParity guards the per-worker arena work: running any of
// the paired workloads with workers=2 may not allocate more than a small
// overhead above workers=1 (pool bookkeeping — goroutines and per-worker
// scratch — is O(workers), far below the per-item work). The regressions
// this assertion pins down were 10× on CompressDP (a parallel signature
// scan that materialized a key string per monomial) and +20% on
// ForestDescent (a speculative round). Today workers > 1 run the one
// signature scan over runs of whole polynomials, so the only extra
// allocations are each worker's counters and scratch.
func TestWorkerAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-parity sweep is not -short friendly")
	}
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 100_000}, names)
	tree := telephony.PlansTree(names)
	bound := set.Size() / 2
	forest := abstraction.Forest{telephony.PlansTree(names), telephony.MonthsTree(names, 12)}
	fbound := set.Size() / 4
	cases := []struct {
		name string
		run  func(workers int) error
	}{
		{"CompressDP", func(w int) error {
			_, err := core.DPSingleTreeN(set, tree, bound, w)
			return err
		}},
		{"ForestDescent", func(w int) error {
			_, err := core.ForestDescentN(set, forest, fbound, 0, w)
			return err
		}},
		{"ApplyCut", func(w int) error {
			res, err := core.DPSingleTreeN(set, tree, bound, 1)
			if err == nil {
				abstraction.ApplyN(set, w, res.Cuts...)
			}
			return err
		}},
	}
	for _, tc := range cases {
		var runErr error
		measure := func(w int) float64 {
			return testing.AllocsPerRun(2, func() {
				if err := tc.run(w); err != nil && runErr == nil {
					runErr = err
				}
			})
		}
		w1 := measure(1)
		w2 := measure(2)
		if runErr != nil {
			t.Fatalf("%s: %v", tc.name, runErr)
		}
		if w2 > w1*1.05+128 {
			t.Errorf("%s: workers=2 allocates %.0f/op vs %.0f/op at workers=1", tc.name, w2, w1)
		}
	}
}

func BenchmarkFrontier(b *testing.B) {
	set, tree := benchSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Frontier(set, tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundSweep32 pairs one 32-bound FrontierSweep against 32
// independent per-bound recompressions of the same workload;
// scripts/bench.sh derives the one-sweep-vs-N-recompressions speedup from
// the paired mode= timings, the way it derives worker speedups from the
// workers= pairs.
func BenchmarkBoundSweep32(b *testing.B) {
	set, tree := benchSet(b)
	bounds := experiments.SweepBounds(set.Size(), experiments.SweepBoundCount)
	b.Run("mode=recompress", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bound := range bounds {
				if _, err := core.DPSingleTree(set, tree, bound); err != nil && !errors.Is(err, core.ErrInfeasible) {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("mode=sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.FrontierSweep(set, abstraction.Forest{tree}, bounds, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
