package cobra_test

import (
	"context"
	"errors"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
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
	names, set, trees := telephonySet(t)
	opts := cobra.Options{MaxResidentMonomials: maxResident, SpillDir: t.TempDir()}
	var src cobra.SetSource = set
	if maxResident > 0 {
		ss, err := cobra.ShardSet(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		src = ss
	}
	ds, err := cobra.OpenDataset("tel", src, trees, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	_ = names
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

func TestDatasetMatchesOneShotCalls(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxResident int
	}{
		{"in-memory", 0},
		{"out-of-core", 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, set, trees := telephonyDataset(t, tc.maxResident)
			ctx := context.Background()
			bound := set.Size() / 2

			res, err := ds.Compress(ctx, bound)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cobra.Compress(set, trees, bound, cobra.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Size != want.Size || res.NumMeta != want.NumMeta || !res.Cuts[0].Equal(want.Cuts[0]) {
				t.Fatalf("Compress: got size=%d meta=%d cut=%v, want size=%d meta=%d cut=%v",
					res.Size, res.NumMeta, res.Cuts[0], want.Size, want.NumMeta, want.Cuts[0])
			}

			fr, err := ds.Frontier(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantFr, err := cobra.Frontier(set, trees[0], cobra.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(fr) != len(wantFr) {
				t.Fatalf("Frontier: %d points, want %d", len(fr), len(wantFr))
			}
			for i := range fr {
				if fr[i].NumMeta != wantFr[i].NumMeta || fr[i].MinSize != wantFr[i].MinSize || !fr[i].Cut.Equal(wantFr[i].Cut) {
					t.Fatalf("Frontier point %d: %+v want %+v", i, fr[i], wantFr[i])
				}
			}

			bounds := []int{-1, 0, bound, set.Size() * 2}
			answers, err := ds.Sweep(ctx, bounds)
			if err != nil {
				t.Fatal(err)
			}
			wantAns, err := cobra.FrontierSweep(set, trees, bounds, cobra.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range answers {
				g, w := answers[i], wantAns[i]
				if (g.Err == nil) != (w.Err == nil) {
					t.Fatalf("Sweep bound %d: err=%v want %v", g.Bound, g.Err, w.Err)
				}
				if g.Err != nil {
					if g.Err.Error() != w.Err.Error() {
						t.Fatalf("Sweep bound %d: err %q want %q", g.Bound, g.Err, w.Err)
					}
					continue
				}
				if g.Result.Size != w.Result.Size || g.Result.NumMeta != w.Result.NumMeta {
					t.Fatalf("Sweep bound %d: size=%d meta=%d, want size=%d meta=%d",
						g.Bound, g.Result.Size, g.Result.NumMeta, w.Result.Size, w.Result.NumMeta)
				}
			}

			asgs := telScenarios(t, ds.Names())
			rows, err := ds.EvalBatch(ctx, asgs)
			if err != nil {
				t.Fatal(err)
			}
			wantRows := cobra.EvalBatch(cobra.Compile(set), asgs, cobra.Options{})
			rowsEqual(t, rows, wantRows, "EvalBatch")

			derived, err := ds.Apply(ctx, res.Cuts...)
			if err != nil {
				t.Fatal(err)
			}
			defer derived.Close()
			if derived.Size() != res.Size {
				t.Fatalf("Apply: derived size %d, want %d", derived.Size(), res.Size)
			}
			induced := make([]*cobra.Assignment, len(asgs))
			for i, a := range asgs {
				induced[i] = cobra.Induced(a, res.Cuts...)
			}
			gotDerived, err := derived.EvalBatch(ctx, induced)
			if err != nil {
				t.Fatal(err)
			}
			applied := cobra.Apply(set, cobra.Options{}, res.Cuts...)
			wantDerived := cobra.EvalBatch(cobra.Compile(applied), induced, cobra.Options{})
			rowsEqual(t, gotDerived, wantDerived, "derived EvalBatch")
		})
	}
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

func TestDatasetEvictionAnswersIdentically(t *testing.T) {
	ds, set, _ := telephonyDataset(t, 512)
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
	if ds.Size() != set.Size() || ds.Len() != set.Len() {
		t.Fatal("cached stats lost on eviction")
	}

	// Answers after transparent re-open are bit-identical.
	after, err := ds.EvalBatch(ctx, asgs)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, after, before, "EvalBatch after eviction")
	if !ds.Resident() {
		t.Fatal("dataset did not reload on use")
	}

	// A fresh solve (not memoized) over the reloaded source matches the
	// in-memory answer too.
	if _, err := ds.Evict(); err != nil {
		t.Fatal(err)
	}
	bound := set.Size() / 3
	res, err := ds.Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cobra.Compress(set, ds.Trees(), bound, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != want.Size || !res.Cuts[0].Equal(want.Cuts[0]) {
		t.Fatalf("Compress after eviction: size=%d cut=%v, want size=%d cut=%v",
			res.Size, res.Cuts[0], want.Size, want.Cuts[0])
	}

	// The memoized curve survived both evictions.
	frAfter, err := ds.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if &frBefore[0] != &frAfter[0] {
		t.Fatal("memoized frontier lost across eviction")
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
			rowsEqual(t, rows, cobra.EvalBatch(cobra.Compile(want), asgs, cobra.Options{}), "captured EvalBatch")
		})
	}
}
