package cobra_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// telephonySet builds the small deterministic telephony workload the
// Dataset tests share.
func telephonySet(t *testing.T) (*cobra.Names, *cobra.Set, cobra.Forest) {
	t.Helper()
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 60}, names)
	return names, set, cobra.Forest{telephony.PlansTree(names)}
}

// telephonyDataset opens the workload as a Dataset; a positive
// maxResident selects the out-of-core representation.
func telephonyDataset(t *testing.T, maxResident int) (*cobra.Dataset, *cobra.Set, cobra.Forest) {
	t.Helper()
	_, set, trees := telephonySet(t)
	ds := openDataset(t, set, trees, cobra.Options{MaxResidentMonomials: maxResident, SpillDir: t.TempDir()})
	return ds, set, trees
}

// openDataset opens src as a Dataset over trees and closes it when the
// test ends.
func openDataset(t testing.TB, src cobra.SetSource, trees cobra.Forest, opts cobra.Options) *cobra.Dataset {
	t.Helper()
	ds, err := cobra.OpenDataset("test", src, trees, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// resultsEqual checks that two Results are the same bits: cuts, sizes and
// statistics.
func resultsEqual(t testing.TB, what string, got, want *cobra.Result) {
	t.Helper()
	if got.Size != want.Size || got.NumMeta != want.NumMeta || got.UsedMeta != want.UsedMeta ||
		got.OriginalSize != want.OriginalSize || got.OriginalVars != want.OriginalVars || len(got.Cuts) != len(want.Cuts) {
		t.Fatalf("%s: got %+v, want %+v", what, got, want)
	}
	for i := range got.Cuts {
		if !got.Cuts[i].Equal(want.Cuts[i]) {
			t.Fatalf("%s: cut %d = %v, want %v", what, i, got.Cuts[i], want.Cuts[i])
		}
	}
}

// indexedTelephonyDataset is telephonyDataset over a v3 file of the
// workload, decoded at open under maxResident.
func indexedTelephonyDataset(t *testing.T, maxResident int) (*cobra.Dataset, *cobra.Set, cobra.Forest) {
	t.Helper()
	names, set, trees := telephonySet(t)
	ix, err := polyio.OpenIndexedFile(writeV3File(t, t.TempDir(), set, true), names)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := cobra.OpenDataset("tel", ix, trees, cobra.Options{MaxResidentMonomials: maxResident, SpillDir: t.TempDir()})
	if err != nil {
		ix.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, set, trees
}

func telScenarios(t *testing.T, names *cobra.Names) []*cobra.Assignment {
	t.Helper()
	a1 := cobra.NewAssignment(names)
	if err := a1.Set("m3", 0.8); err != nil {
		t.Fatal(err)
	}
	a2 := cobra.NewAssignment(names)
	a3 := cobra.NewAssignment(names)
	if err := a3.Set("m1", 1.1); err != nil {
		t.Fatal(err)
	}
	if err := a3.Set("m3", 0.8); err != nil {
		t.Fatal(err)
	}
	return []*cobra.Assignment{a1, a2, a3}
}

func rowsEqual(t *testing.T, got, want [][]float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d entries, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: row %d col %d = %v, want %v (must be bit-identical)", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// solvesMatchReference checks the dataset's Compress at bound, Frontier
// and Sweep against the algorithms of the internal packages run once over
// set with one worker, and Compress's size and meta-variable count against
// exhaustive search. It returns the Compress result.
func solvesMatchReference(t *testing.T, what string, ds *cobra.Dataset, set *cobra.Set, trees cobra.Forest, bound int) *cobra.Result {
	t.Helper()
	ctx := context.Background()
	res, err := ds.Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CompressSource(set, trees, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, what+" Compress", res, want)
	ex, err := core.Exhaustive(set, trees[0], bound)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != ex.Size || res.NumMeta != ex.NumMeta {
		t.Fatalf("%s Compress: size=%d meta=%d, exhaustive search finds size=%d meta=%d", what, res.Size, res.NumMeta, ex.Size, ex.NumMeta)
	}

	fr, err := ds.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantFr, err := core.FrontierSourceN(set, trees[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != len(wantFr) {
		t.Fatalf("%s Frontier: %d points, want %d", what, len(fr), len(wantFr))
	}
	for i := range fr {
		if fr[i].NumMeta != wantFr[i].NumMeta || fr[i].MinSize != wantFr[i].MinSize || !fr[i].Cut.Equal(wantFr[i].Cut) {
			t.Fatalf("%s Frontier point %d: %+v want %+v", what, i, fr[i], wantFr[i])
		}
	}

	bounds := []int{-1, 0, bound, set.Size() * 2}
	answers, err := ds.Sweep(ctx, bounds)
	if err != nil {
		t.Fatal(err)
	}
	wantAns, err := core.FrontierSweepSource(set, trees, bounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range answers {
		g, w := answers[i], wantAns[i]
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s Sweep bound %d: err=%v want %v", what, g.Bound, g.Err, w.Err)
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("%s Sweep bound %d: err %q want %q", what, g.Bound, g.Err, w.Err)
			}
			continue
		}
		resultsEqual(t, fmt.Sprintf("%s Sweep bound %d", what, g.Bound), g.Result, w.Result)
	}
	return res
}

// writeV3File writes set to dir as a v3 file of several shards — those of
// a ShardedSet of about 256 monomials each — DEFLATE-compressed or raw,
// and returns its path.
func writeV3File(t *testing.T, dir string, set *cobra.Set, compress bool) string {
	t.Helper()
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	path := filepath.Join(dir, "set.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := polyio.WriteSetStreamV3(f, ss, polyio.V3Options{Compress: compress}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDatasetMatchesOneShotCalls checks every Dataset method against a
// one-shot call of the algorithm of the internal packages it runs, applied
// once to the in-memory set with one worker — core's DP, frontier and sweep,
// abstraction.Apply, valuation.Compile + EvalBatchN — for Workers 1, 2
// and 8 and every way a dataset is opened: over the set, over the set
// under a budget (OpenDataset shards it), over a ShardedSet of it, and
// over a v3 file of it (compressed and raw), decoded at open. So does the
// dataset Apply derives: in memory that one is a PackedSet, which
// Compress, Frontier and Sweep read through View, and out-of-core a
// ShardedSet.
func TestDatasetMatchesOneShotCalls(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxResident int
		src         string // "set", "sharded" (a ShardedSet of it) or "compressed"/"raw" (a v3 file of it)
	}{
		{"in-memory", 0, "set"},
		{"budgeted-set", 512, "set"},
		{"out-of-core", 512, "sharded"},
		{"indexed-compressed", 512, "compressed"},
		{"indexed-raw", 512, "raw"},
		{"indexed-unbudgeted", 0, "raw"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					names := cobra.NewNames()
					set := telephony.DirectProvenance(telephony.Config{Customers: 600, Zips: 6}, names)
					trees := cobra.Forest{telephony.PlansTree(names)}
					spill := t.TempDir()
					opts := cobra.Options{Workers: workers, MaxResidentMonomials: tc.maxResident, SpillDir: spill}
					var src cobra.SetSource = set
					switch tc.src {
					case "compressed", "raw":
						ix, err := polyio.OpenIndexedFile(writeV3File(t, t.TempDir(), set, tc.src == "compressed"), names)
						if err != nil {
							t.Fatal(err)
						}
						src = ix
					case "sharded":
						ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: tc.maxResident, SpillDir: spill})
						if err != nil {
							t.Fatal(err)
						}
						src = ss
					}
					ds, err := cobra.OpenDataset("tel", src, trees, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer ds.Close()
					if ds.OutOfCore() != (tc.maxResident > 0 || tc.src != "set") {
						t.Fatalf("OutOfCore() = %v", ds.OutOfCore())
					}
					ctx := context.Background()
					res := solvesMatchReference(t, "dataset", ds, set, trees, set.Size()/2)

					asgs := telScenarios(t, ds.Names())
					rows, err := ds.EvalBatch(ctx, asgs)
					if err != nil {
						t.Fatal(err)
					}
					wantRows := valuation.Compile(set).EvalBatchN(asgs, nil, 1)
					rowsEqual(t, rows, wantRows, "EvalBatch")

					derived, err := ds.Apply(ctx, res.Cuts...)
					if err != nil {
						t.Fatal(err)
					}
					defer derived.Close()
					if derived.Size() != res.Size || derived.OutOfCore() != ds.OutOfCore() {
						t.Fatalf("Apply: derived size %d (out of core %v), want %d (%v)", derived.Size(), derived.OutOfCore(), res.Size, ds.OutOfCore())
					}
					induced := make([]*cobra.Assignment, len(asgs))
					for i, a := range asgs {
						induced[i] = cobra.Induced(a, res.Cuts...)
					}
					gotDerived, err := derived.EvalBatch(ctx, induced)
					if err != nil {
						t.Fatal(err)
					}
					applied := abstraction.Apply(set, 1, res.Cuts...)
					rowsEqual(t, gotDerived, valuation.Compile(applied).EvalBatchN(induced, nil, 1), "derived EvalBatch")
					solvesMatchReference(t, "derived", derived, applied, trees, applied.Size())

					if tc.name != "budgeted-set" {
						return
					}
					// The set OpenDataset sharded under the budget evicts, answers
					// the same bits from its spill file, and leaves nothing behind.
					if evicted, err := ds.Evict(); err != nil || !evicted {
						t.Fatalf("Evict() = %v, %v", evicted, err)
					}
					after, err := ds.EvalBatch(ctx, asgs)
					if err != nil {
						t.Fatal(err)
					}
					rowsEqual(t, after, wantRows, "EvalBatch after Evict")
					fresh, err := ds.Compress(ctx, set.Size()/3)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.CompressSource(set, trees, set.Size()/3, 1)
					if err != nil {
						t.Fatal(err)
					}
					resultsEqual(t, "Compress after Evict", fresh, want)
					if err := derived.Close(); err != nil {
						t.Fatal(err)
					}
					if err := ds.Close(); err != nil {
						t.Fatal(err)
					}
					spillDirHoldsOnly(t, spill)
				})
			}
		})
	}
}

// TestDatasetPackedSourceMemoizes: an in-memory dataset memoizes one
// Program whatever its source — a PackedSet is evaluated in place, not
// streamed through a fresh Program per call — so a warm one-scenario
// EvalBatch allocates the same over a PackedSet as over the Set it packs,
// and answers the same rows bit for bit. (Under -race, where sync.Pool
// drops the pooled scratch, only the rows are checked.)
func TestDatasetPackedSourceMemoizes(t *testing.T) {
	_, set, trees := telephonySet(t)
	ps, err := polynomial.PackSet(set)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	asgs := telScenarios(t, set.Names)[:1]
	var allocs [2]float64
	var rows [2][][]float64
	for i, src := range []cobra.SetSource{set, ps} {
		ds, err := cobra.OpenDataset("tel", src, trees, cobra.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if rows[i], err = ds.EvalBatch(ctx, asgs); err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, err := ds.EvalBatch(ctx, asgs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if !raceEnabled && allocs[0] != allocs[1] {
		t.Fatalf("warm one-scenario EvalBatch allocates %v over a Set, %v over its PackedSet", allocs[0], allocs[1])
	}
	rowsEqual(t, rows[1], rows[0], "PackedSet-backed EvalBatch")
}

func TestDatasetMemoizesAcrossWorkerViews(t *testing.T) {
	ds, set, _ := telephonyDataset(t, 0)
	ctx := context.Background()
	bound := set.Size() / 2

	r1, err := ds.Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ds.WithWorkers(8).Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("Compress result not memoized across WithWorkers views")
	}

	f1, err := ds.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ds.WithWorkers(2).Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) == 0 || &f1[0] != &f2[0] {
		t.Fatal("Frontier curve not memoized across WithWorkers views")
	}
}

// shardedDataset opens the telephony workload over a ShardedSet of many
// small shards, handing out the backing set and its SpillDir so a test can
// look at what eviction did to them. The budget is a third of the set, or
// none: sharded, nothing spilled.
func shardedDataset(t *testing.T, budgeted bool) (ds *cobra.Dataset, ss *cobra.ShardedSet, dir string, set *cobra.Set, trees cobra.Forest) {
	t.Helper()
	names := cobra.NewNames()
	set = telephony.DirectProvenance(telephony.Config{Customers: 600, Zips: 12}, names) // one polynomial per zip
	trees = cobra.Forest{telephony.PlansTree(names)}
	dir = t.TempDir()
	maxResident := 0
	if budgeted {
		maxResident = set.Size() / 3
	}
	ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{TargetMonomials: set.Size() / 12, MaxResidentMonomials: maxResident, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ds, err = cobra.OpenDataset("tel", ss, trees, cobra.Options{MaxResidentMonomials: maxResident, SpillDir: dir})
	if err != nil {
		ss.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, ss, dir, set, trees
}

// spillDirHoldsOnly checks dir contains exactly the entries matching the
// given patterns, one each.
func spillDirHoldsOnly(t *testing.T, dir string, patterns ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	ok := len(names) == len(patterns)
	for i := 0; ok && i < len(names); i++ {
		ok, _ = filepath.Match(patterns[i], names[i])
	}
	if !ok {
		t.Fatalf("spill dir holds %q, want %q", names, patterns)
	}
}

func TestDatasetEvictionAnswersIdentically(t *testing.T) {
	ds, ss, dir, set, _ := shardedDataset(t, true)
	ctx := context.Background()
	asgs := telScenarios(t, ds.Names())

	before, err := ds.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}
	frBefore, err := ds.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ss.ResidentMonomials() == 0 || ss.SpilledShards() == 0 || ss.SpilledShards() == ss.NumShards() {
		t.Fatalf("fixture: want a partly spilled set, have %d resident monomials, %d of %d shards spilled",
			ss.ResidentMonomials(), ss.SpilledShards(), ss.NumShards())
	}

	evicted, err := ds.Evict()
	if err != nil {
		t.Fatal(err)
	}
	if !evicted {
		t.Fatal("Evict() = false for a resident out-of-core dataset")
	}
	if ds.Resident() {
		t.Fatal("dataset still resident after Evict")
	}
	if got := ss.ResidentMonomials(); got != 0 {
		t.Fatalf("%d monomials resident after Evict", got)
	}
	if ss.SpilledShards() != ss.NumShards() {
		t.Fatalf("%d of %d shards spilled after Evict", ss.SpilledShards(), ss.NumShards())
	}
	// Nothing was converted: the only thing on disk is the set's own spill
	// directory.
	spillDirHoldsOnly(t, dir, "cobra-shards-*")
	if ds.Size() != set.Size() || ds.Len() != set.Len() {
		t.Fatal("cached stats lost on eviction")
	}
	if again, err := ds.Evict(); err != nil || again {
		t.Fatalf("second Evict() = %v, %v; want false, nil", again, err)
	}

	// Answers from the spilled shards are bit-identical, and using the
	// dataset does not bring it back: eviction is one-way.
	after, err := ds.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, after, before, "EvalBatch after eviction")

	// A fresh solve (not memoized) over the evicted source matches the
	// in-memory answer too.
	bound := set.Size() / 3
	res, err := ds.Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CompressSource(set, ds.Trees(), bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != want.Size || !res.Cuts[0].Equal(want.Cuts[0]) {
		t.Fatalf("Compress after eviction: size=%d cut=%v, want size=%d cut=%v",
			res.Size, res.Cuts[0], want.Size, want.Cuts[0])
	}
	if ds.Resident() {
		t.Fatal("using an evicted dataset made it resident again")
	}
	if got := ss.ResidentMonomials(); got != 0 {
		t.Fatalf("%d monomials resident between passes of an evicted dataset", got)
	}
	if peak, budget := ss.PeakResidentMonomials(), ss.Options().MaxResidentMonomials; peak > budget {
		t.Fatalf("peak residency %d exceeds the budget %d", peak, budget)
	}

	// The memoized curve survived eviction.
	frAfter, err := ds.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if &frBefore[0] != &frAfter[0] {
		t.Fatal("memoized frontier lost across eviction")
	}

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	spillDirHoldsOnly(t, dir)
}

// TestDatasetEvictBitIdenticalAcrossWorkers: for a budgeted and for an
// unbudgeted ShardedSet (which evicts too: every shard goes to disk), rows
// and cuts are the same bits from a dataset that was never evicted, from
// one evicted before its first use, and from the in-memory set, at Workers
// 1, 2 and 8.
func TestDatasetEvictBitIdenticalAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	for _, budgeted := range []bool{true, false} {
		for _, workers := range []int{1, 2, 8} {
			kept, _, _, _, _ := shardedDataset(t, budgeted)
			gone, ss, dir, set, _ := shardedDataset(t, budgeted)
			if evicted, err := gone.Evict(); err != nil || !evicted {
				t.Fatalf("budgeted %v: Evict() = %v, %v", budgeted, evicted, err)
			}
			if ss.ResidentMonomials() != 0 || ss.SpilledShards() != ss.NumShards() || ss.NumShards() < 4 {
				t.Fatalf("budgeted %v: %d monomials resident, %d of %d shards spilled after Evict",
					budgeted, ss.ResidentMonomials(), ss.SpilledShards(), ss.NumShards())
			}
			spillDirHoldsOnly(t, dir, "cobra-shards-*")

			// The two datasets have namespaces and trees of their own, so each
			// is held against the in-memory answer over its own, and the rows
			// — plain numbers — against each other.
			bound := set.Size() / 3
			var rows [2][][]float64
			var res [2]*cobra.Result
			for i, ds := range []*cobra.Dataset{kept, gone} {
				view := ds.WithWorkers(workers)
				var err error
				if res[i], err = view.Compress(ctx, bound); err != nil {
					t.Fatal(err)
				}
				if rows[i], err = view.EvalBatch(ctx, telScenarios(t, ds.Names())); err != nil {
					t.Fatal(err)
				}
				applied, err := view.Apply(ctx, res[i].Cuts...)
				if err != nil {
					t.Fatal(err)
				}
				if applied.Size() != res[i].Size || res[i].Size > bound {
					t.Fatalf("budgeted %v workers %d: cut of size %d applies to %d monomials (bound %d)", budgeted, workers, res[i].Size, applied.Size(), bound)
				}
				applied.Close()
			}
			rowsEqual(t, rows[1], rows[0], "evicted vs kept")
			rowsEqual(t, rows[1], valuation.Compile(set).EvalBatchN(telScenarios(t, set.Names), nil, 1), "evicted vs in-memory")
			want, err := core.CompressSource(set, gone.Trees(), bound, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res[1].Size != want.Size || res[1].NumMeta != want.NumMeta || !res[1].Cuts[0].Equal(want.Cuts[0]) ||
				res[0].Size != want.Size || res[0].Cuts[0].String() != want.Cuts[0].String() {
				t.Fatalf("budgeted %v workers %d: Compress evicted size=%d cut=%v, kept size=%d cut=%v, in-memory size=%d cut=%v",
					budgeted, workers, res[1].Size, res[1].Cuts[0], res[0].Size, res[0].Cuts[0], want.Size, want.Cuts[0])
			}
			if gone.Resident() || !kept.Resident() {
				t.Fatalf("Resident(): evicted %v, kept %v", gone.Resident(), kept.Resident())
			}
			if err := gone.Close(); err != nil {
				t.Fatal(err)
			}
			spillDirHoldsOnly(t, dir)
		}
	}
}

// TestDatasetEvictIndexed: a dataset opened over an indexed v3 file holds
// the ShardedSet the file was decoded into at open, so it evicts like any
// ShardedSet-backed dataset and answers bit for bit as before. The v3 file
// is never written, spill files appear only in the dataset's private
// subdirectory of SpillDir and go with Close, and an unbudgeted open keeps
// the whole set resident until Evict, as any unbudgeted ShardedSet does.
func TestDatasetEvictIndexed(t *testing.T) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 600, Zips: 12}, names)
	trees := cobra.Forest{telephony.PlansTree(names)}
	ctx := context.Background()
	want := valuation.Compile(set).EvalBatchN(telScenarios(t, names), nil, 1)
	// compressMatches solves a bound the dataset has not memoized and
	// checks it against the DP run once on the set.
	compressMatches := func(ds *cobra.Dataset, bound, workers int, what string) {
		t.Helper()
		got, err := ds.WithWorkers(workers).Compress(ctx, bound)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CompressSource(set, trees, bound, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != res.Size || !got.Cuts[0].Equal(res.Cuts[0]) {
			t.Fatalf("%s: Compress size=%d cut=%v, want size=%d cut=%v", what, got.Size, got.Cuts[0], res.Size, res.Cuts[0])
		}
	}
	for _, budget := range []int{0, set.Size() / 3} {
		dir := t.TempDir()
		path := writeV3File(t, dir, set, true)
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := polyio.OpenIndexedFile(path, names)
		if err != nil {
			t.Fatal(err)
		}
		spill := t.TempDir()
		ds, err := cobra.OpenDataset("indexed", ix, trees, cobra.Options{MaxResidentMonomials: budget, SpillDir: spill})
		if err != nil {
			t.Fatal(err)
		}
		if budget == 0 {
			spillDirHoldsOnly(t, spill) // resident: nothing spilled
		} else {
			spillDirHoldsOnly(t, spill, "cobra-shards-*")
		}
		before, err := ds.EvalBatch(ctx, telScenarios(t, names))
		if err != nil {
			t.Fatal(err)
		}
		compressMatches(ds, set.Size()/2, 2, fmt.Sprintf("budget %d, before Evict", budget))
		if evicted, err := ds.Evict(); err != nil || !evicted {
			t.Fatalf("budget %d: Evict() = %v, %v on an indexed dataset; want true, nil", budget, evicted, err)
		}
		if !ds.OutOfCore() || ds.Resident() {
			t.Fatalf("budget %d: OutOfCore() = %v, Resident() = %v after Evict", budget, ds.OutOfCore(), ds.Resident())
		}
		spillDirHoldsOnly(t, spill, "cobra-shards-*")
		shards, err := filepath.Glob(filepath.Join(spill, "cobra-shards-*"))
		if err != nil {
			t.Fatal(err)
		}
		spillDirHoldsOnly(t, shards[0], "shards.spill")
		after, err := ds.EvalBatch(ctx, telScenarios(t, names))
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, before, want, "indexed EvalBatch before Evict")
		rowsEqual(t, after, want, "indexed EvalBatch after Evict")
		compressMatches(ds, set.Size()/3, 1, fmt.Sprintf("budget %d, after Evict", budget))
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		spillDirHoldsOnly(t, spill)
		spillDirHoldsOnly(t, dir, "set.v3")
		if now, _ := os.ReadFile(path); !bytes.Equal(now, written) {
			t.Fatal("the dataset wrote to its v3 file")
		}
		if err := ix.Close(); err != nil {
			t.Fatalf("closing the IndexedSet again: %v", err)
		}
	}
}

// countingReaderAt counts the ReadAt calls at each offset of r.
type countingReaderAt struct {
	r  io.ReaderAt
	mu sync.Mutex
	at map[int64]int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.at[off]++
	c.mu.Unlock()
	return c.r.ReadAt(p, off)
}

// TestDatasetOpenIndexedDecodesOnce: a dataset over an indexed v3 file
// reads each shard's stored bytes once, at open — Compress, Apply and
// EvalBatch after it read the dataset's ShardedSet, spilled under the
// budget, and never the file — and answers what the in-memory set does.
func TestDatasetOpenIndexedDecodesOnce(t *testing.T) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 2000, Zips: 20}, names)
	trees := cobra.Forest{telephony.PlansTree(names)}
	data, err := os.ReadFile(writeV3File(t, t.TempDir(), set, true))
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReaderAt{r: bytes.NewReader(data), at: map[int64]int{}}
	ix, err := polyio.OpenIndexedSet(cr, int64(len(data)), names)
	if err != nil {
		t.Fatal(err)
	}
	clear(cr.at) // the header, trailer and footer reads of the open
	ctx := context.Background()
	ds, err := cobra.OpenDataset("once", ix, trees, cobra.Options{MaxResidentMonomials: set.Size() / 8, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	res, err := ds.Compress(ctx, set.Size()/3)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := ds.Apply(ctx, res.Cuts...)
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()
	asgs := telScenarios(t, names)
	induced := make([]*cobra.Assignment, len(asgs))
	for i, a := range asgs {
		induced[i] = cobra.Induced(a, res.Cuts...)
	}
	rows, err := comp.EvalBatch(ctx, induced)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ds.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.at) != ix.NumShards() || ix.NumShards() < 4 {
		t.Fatalf("%d offsets read after open, the file has %d shards", len(cr.at), ix.NumShards())
	}
	for off, n := range cr.at {
		if n != 1 {
			t.Fatalf("the shard at offset %d was read %d times", off, n)
		}
	}
	want, err := core.CompressSource(set, trees, set.Size()/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != want.Size || !res.Cuts[0].Equal(want.Cuts[0]) {
		t.Fatalf("Compress: size=%d cut=%v, want size=%d cut=%v", res.Size, res.Cuts[0], want.Size, want.Cuts[0])
	}
	rowsEqual(t, rows, valuation.Compile(abstraction.Apply(set, 1, res.Cuts...)).EvalBatchN(induced, nil, 1), "derived EvalBatch")
	rowsEqual(t, full, valuation.Compile(set).EvalBatchN(asgs, nil, 1), "EvalBatch")
}

// TestDatasetOpenIndexedCorruptShard: a shard that fails its checksum in
// the middle of the decode makes OpenDataset return the typed error naming
// it and leave nothing in SpillDir, though earlier shards had spilled; the
// IndexedSet stays open, the caller's to read and to close.
func TestDatasetOpenIndexedCorruptShard(t *testing.T) {
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 2000, Zips: 20}, names)
	trees := cobra.Forest{telephony.PlansTree(names)}
	path := writeV3File(t, t.TempDir(), set, true)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find each shard's stored bytes by the reads of one pass.
	cr := &countingReaderAt{r: bytes.NewReader(data), at: map[int64]int{}}
	probe, err := polyio.OpenIndexedSet(cr, int64(len(data)), names)
	if err != nil {
		t.Fatal(err)
	}
	clear(cr.at)
	if err := probe.ForEachShard(func(_, _ int, _ *cobra.Set) error { return nil }); err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, 0, len(cr.at))
	for off := range cr.at {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	mid := len(offs) / 2
	data[offs[mid]+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ix, err := polyio.OpenIndexedFile(path, names)
	if err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()
	_, err = cobra.OpenDataset("corrupt", ix, trees, cobra.Options{MaxResidentMonomials: set.Size() / 8, SpillDir: spill})
	var ce *polyio.ChecksumError
	if !errors.As(err, &ce) || ce.Shard != mid {
		t.Fatalf("OpenDataset over a file with shard %d damaged: %v, want a ChecksumError for it", mid, err)
	}
	spillDirHoldsOnly(t, spill)
	if _, err := ix.DecodeShard(0); err != nil {
		t.Fatalf("the IndexedSet was closed by the failed open: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("a second Close: %v", err)
	}
}

// TestDatasetEvictFailureLeavesUsable: an Evict that cannot spill (its
// SpillDir was removed from under it — a permission bit would not stop a
// root test runner) returns the error and changes nothing: the dataset is
// still resident, still answers, and evicts once the directory is back.
func TestDatasetEvictFailureLeavesUsable(t *testing.T) {
	ds, ss, dir, set, _ := shardedDataset(t, false)
	ctx := context.Background()
	asgs := telScenarios(t, ds.Names())
	want := valuation.Compile(set).EvalBatchN(asgs, nil, 1)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	evicted, err := ds.Evict()
	if err == nil || evicted {
		t.Fatalf("Evict() = %v, %v with no spill dir; want an error", evicted, err)
	}
	if !ds.Resident() || ss.ResidentMonomials() != set.Size() {
		t.Fatalf("failed Evict left Resident() = %v with %d of %d monomials in memory", ds.Resident(), ss.ResidentMonomials(), set.Size())
	}
	rows, err := ds.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, rows, want, "EvalBatch after a failed Evict")

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if evicted, err := ds.Evict(); err != nil || !evicted {
		t.Fatalf("Evict() = %v, %v once the spill dir is back", evicted, err)
	}
	rows, err = ds.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, rows, want, "EvalBatch after the retried Evict")
	if ds.Resident() || ss.ResidentMonomials() != 0 {
		t.Fatalf("Resident() = %v, %d monomials in memory after Evict", ds.Resident(), ss.ResidentMonomials())
	}
}

func TestDatasetEvictInMemoryIsNoop(t *testing.T) {
	ds, _, _ := telephonyDataset(t, 0)
	evicted, err := ds.Evict()
	if err != nil {
		t.Fatal(err)
	}
	if evicted {
		t.Fatal("in-memory dataset reported evicted")
	}
	if !ds.Resident() {
		t.Fatal("in-memory dataset must stay resident")
	}
}

func TestDatasetContextCancellation(t *testing.T) {
	ds, set, _ := telephonyDataset(t, 512)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ds.EvalBatch(canceled, telScenarios(t, ds.Names())); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalBatch on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := ds.Compress(canceled, set.Size()/2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compress on canceled ctx: err = %v, want context.Canceled", err)
	}

	// Cancellation is not memoized: the same calls succeed afterwards.
	ctx := context.Background()
	if _, err := ds.Compress(ctx, set.Size()/2); err != nil {
		t.Fatalf("Compress after cancellation: %v", err)
	}
	if _, err := ds.EvalBatch(ctx, telScenarios(t, ds.Names())); err != nil {
		t.Fatalf("EvalBatch after cancellation: %v", err)
	}
}

func TestDatasetClosedErrors(t *testing.T) {
	ds, _, _ := telephonyDataset(t, 0)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.EvalBatch(context.Background(), nil); err == nil {
		t.Fatal("EvalBatch on closed dataset did not fail")
	}
	if _, err := ds.Compress(context.Background(), 10); err == nil {
		t.Fatal("Compress on closed dataset did not fail")
	}
}

func TestCaptureDatasetMatchesCapture(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name        string
		maxResident int
	}{
		{"in-memory", 0},
		{"out-of-core", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := cobra.NewNames()
			cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
			if err != nil {
				t.Fatal(err)
			}
			trees := cobra.Forest{telephony.PlansTree(names)}
			opts := cobra.Options{MaxResidentMonomials: tc.maxResident, SpillDir: t.TempDir()}
			ds, err := cobra.CaptureDataset(ctx, "fig1", telephony.RevenueQuery, cat, names, "revenue", trees, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if ds.OutOfCore() != (tc.maxResident > 0) {
				t.Fatalf("OutOfCore() = %v", ds.OutOfCore())
			}

			want, err := cobra.Capture(telephony.RevenueQuery, cat, names, "revenue", cobra.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ds.Size() != want.Size() || ds.Len() != want.Len() {
				t.Fatalf("captured stats: size=%d polys=%d, want size=%d polys=%d",
					ds.Size(), ds.Len(), want.Size(), want.Len())
			}
			asgs := telScenarios(t, names)
			rows, err := ds.EvalBatch(ctx, asgs)
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, rows, valuation.Compile(want).EvalBatchN(asgs, nil, 1), "captured EvalBatch")
		})
	}
}

// passCounter is an in-memory source that counts the passes made over it.
type passCounter struct {
	*cobra.Set
	passes atomic.Int64
}

func (c *passCounter) ForEachShard(fn func(i, firstPoly int, s *cobra.Set) error) error {
	c.passes.Add(1)
	return c.Set.ForEachShard(fn)
}

// partitionedForest builds a two-tree instance in which every monomial
// holds leaves of one tree only: three groups of three plans and two of
// four agents, each polynomial over one of the trees and six contexts.
func partitionedForest() (*cobra.Set, cobra.Forest) {
	r := rand.New(rand.NewSource(7))
	names := cobra.NewNames()
	var plans, agents [][]string
	for g := 0; g < 3; g++ {
		for l := 0; l < 3; l++ {
			plans = append(plans, []string{fmt.Sprintf("P%d", g), fmt.Sprintf("p%d_%d", g, l)})
		}
	}
	for g := 0; g < 2; g++ {
		for l := 0; l < 4; l++ {
			agents = append(agents, []string{fmt.Sprintf("A%d", g), fmt.Sprintf("a%d_%d", g, l)})
		}
	}
	pt, err := cobra.TreeFromPaths("Plans", names, plans...)
	if err != nil {
		panic(err)
	}
	at, err := cobra.TreeFromPaths("Agents", names, agents...)
	if err != nil {
		panic(err)
	}
	set := cobra.NewSet(names)
	for i := 0; i < 8; i++ {
		leaves := plans
		if i%2 == 1 {
			leaves = agents
		}
		var b polynomial.Builder
		for m := 0; m < 20; m++ {
			leaf := names.Var(leaves[r.Intn(len(leaves))][1])
			b.Add(float64(1+r.Intn(90))/10, polynomial.T(leaf), polynomial.T(names.Var(fmt.Sprintf("c%d", r.Intn(6)))))
		}
		set.Add(fmt.Sprintf("g%d", i), b.Polynomial())
	}
	return set, cobra.Forest{pt, at}
}

// TestCompressAfterForestFrontierMakesNoPass: once ForestFrontier has
// memoized a partitioned forest's curve, Compress answers every bound
// from it without a pass over the source, and with the Result — or error
// — a dataset that never computed the curve gives, for every worker
// count.
func TestCompressAfterForestFrontierMakesNoPass(t *testing.T) {
	set, forest := partitionedForest()
	ctx := context.Background()
	for _, w := range []int{1, 2, 8} {
		src := &passCounter{Set: set}
		ds := openDataset(t, src, forest, cobra.Options{Workers: w})
		fresh := openDataset(t, set, forest, cobra.Options{Workers: w})
		if _, err := ds.ForestFrontier(ctx); err != nil {
			t.Fatal(err)
		}
		before := src.passes.Load()
		if before == 0 {
			t.Fatal("ForestFrontier made no pass the counter saw")
		}
		for bound := -1; bound <= set.Size()+1; bound++ {
			got, gotErr := ds.Compress(ctx, bound)
			want, wantErr := fresh.Compress(ctx, bound)
			what := fmt.Sprintf("workers=%d bound %d", w, bound)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
			}
			if gotErr == nil {
				resultsEqual(t, what, got, want)
			}
		}
		if n := src.passes.Load() - before; n != 0 {
			t.Fatalf("workers=%d: Compress made %d passes after ForestFrontier", w, n)
		}
	}
	// Without the memoized curve, the same source is read.
	src := &passCounter{Set: set}
	if _, err := openDataset(t, src, forest, cobra.Options{}).Compress(ctx, set.Size()/2); err != nil || src.passes.Load() == 0 {
		t.Fatalf("Compress with no curve: err %v, %d passes", err, src.passes.Load())
	}
}

// TestDatasetStats: the counters a dataset reports, in memory, out of
// core and after Apply.
func TestDatasetStats(t *testing.T) {
	ctx := context.Background()
	_, set, trees := telephonySet(t)
	ds := openDataset(t, set, trees, cobra.Options{})
	st := ds.Stats()
	if st.Size != set.Size() || st.Polynomials != set.Len() || st.UsedVars != len(set.UsedVars()) ||
		st.Resident != set.Size() || st.PeakResident != set.Size() || st.Spill != nil || st.ApplyRead != 0 {
		t.Fatalf("in memory: %+v", st)
	}
	res, err := ds.Compress(ctx, set.Size()/2)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := ds.Apply(ctx, res.Cuts...)
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()
	if st := comp.Stats(); st.ApplyRead != set.Size() || st.Size != res.Size || st.Resident != res.Size {
		t.Fatalf("applied: %+v, want %d read and %d written", st, set.Size(), res.Size)
	}

	sharded, ss, _, shSet, _ := shardedDataset(t, true)
	if _, err := sharded.Compress(ctx, shSet.Size()/2); err != nil {
		t.Fatal(err)
	}
	st = sharded.Stats()
	if st.Spill == nil || *st.Spill != ss.SpillIO() || st.Spill.Loads == 0 || st.Spill.BytesWritten == 0 ||
		st.Resident != ss.ResidentMonomials() || st.PeakResident != ss.PeakResidentMonomials() || st.PeakResident > shSet.Size()/3 {
		t.Fatalf("out of core: %+v, set %+v", st, ss.SpillIO())
	}
	if ok, err := sharded.Evict(); !ok || err != nil {
		t.Fatalf("Evict: %v, %v", ok, err)
	}
	if st := sharded.Stats(); st.Resident != 0 || st.Size != shSet.Size() {
		t.Fatalf("evicted: %+v", st)
	}
	sharded.Close()
	if st := sharded.Stats(); st.Resident != 0 || st.Spill != nil || st.Size != shSet.Size() {
		t.Fatalf("closed: %+v", st)
	}
}
