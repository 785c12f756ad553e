package cobra_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/core"
)

// captureFixture builds a small instrumented telephony-style catalog whose
// join output carries one provenance monomial per row.
func captureFixture(t *testing.T, customers int) (cobra.Catalog, *cobra.Names) {
	t.Helper()
	names := cobra.NewNames()

	cust := cobra.NewRelation("Cust",
		cobra.Column{Name: "ID"}, cobra.Column{Name: "Plan"}, cobra.Column{Name: "Zip"})
	plans := []string{"A", "F1", "Y1", "V"}
	for i := 0; i < customers; i++ {
		cust.Append(cobra.Int(int64(i+1)), cobra.Str(plans[i%len(plans)]),
			cobra.Str([]string{"10001", "10002", "10003"}[i%3]))
	}
	calls := cobra.NewRelation("Calls",
		cobra.Column{Name: "CID"}, cobra.Column{Name: "Mo"}, cobra.Column{Name: "Dur"})
	for i := 0; i < customers; i++ {
		for m := 1; m <= 4; m++ {
			calls.Append(cobra.Int(int64(i+1)), cobra.Int(int64(m)), cobra.Float(float64(60+(i*7+m*13)%900)))
		}
	}
	prices := cobra.NewRelation("Plans",
		cobra.Column{Name: "Plan"}, cobra.Column{Name: "Mo"}, cobra.Column{Name: "Price"})
	for pi, p := range plans {
		for m := 1; m <= 4; m++ {
			prices.Append(cobra.Str(p), cobra.Int(int64(m)), cobra.Float(0.1*float64(pi+1)+0.01*float64(m)))
		}
	}
	cat := cobra.Catalog{"Cust": cust, "Calls": calls, "Plans": prices}
	instrumented, err := cobra.ParameterizeColumn(prices, "Price", []cobra.VarSpec{
		{Prefix: "p_", Columns: []string{"Plan"}},
		{Prefix: "m", Columns: []string{"Mo"}},
	}, names)
	if err != nil {
		t.Fatal(err)
	}
	cat["Plans"] = instrumented
	return cat, names
}

const captureJoinQuery = `
SELECT Cust.Zip, Calls.Mo, Calls.Dur * Plans.Price AS rev
FROM Calls, Cust, Plans
WHERE Cust.Plan = Plans.Plan
  AND Cust.ID = Calls.CID
  AND Calls.Mo = Plans.Mo`

// setsEqual checks that got holds want's polynomials under want's keys, in
// want's order.
func setsEqual(t *testing.T, what string, got, want *cobra.Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d polynomials, want %d", what, got.Len(), want.Len())
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] || got.Polys[i].String(want.Names) != want.Polys[i].String(want.Names) {
			t.Fatalf("%s: polynomial %d differs", what, i)
		}
	}
}

// shardedWithin checks that ds answers from a ShardedSet that spilled and
// never held more than budget monomials, and that the set holds exactly
// want's polynomials.
func shardedWithin(t *testing.T, what string, ds *cobra.Dataset, budget int, want *cobra.Set) {
	t.Helper()
	ss := cobra.ShardedSource(ds)
	if !ds.OutOfCore() || ss == nil {
		t.Fatalf("%s: out of core %v, sharded %v", what, ds.OutOfCore(), ss != nil)
	}
	if peak := ss.PeakResidentMonomials(); peak > budget {
		t.Errorf("%s: peak resident %d exceeds budget %d", what, peak, budget)
	}
	if ss.SpilledShards() == 0 {
		t.Errorf("%s: no spills (size %d, budget %d)", what, ss.Size(), budget)
	}
	got, err := ss.Materialize()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	setsEqual(t, what, got, want)
}

// TestCaptureToShardsBoundedAndIdentical: a budgeted CaptureDataset streams
// a join whose full provenance exceeds the budget into its own ShardedSet,
// which must stay within the budget and materialize to exactly Capture's
// set for Workers ∈ {1, 2, 8}, leaving nothing in SpillDir after Close.
func TestCaptureToShardsBoundedAndIdentical(t *testing.T) {
	cat, names := captureFixture(t, 120)
	want, err := cobra.Capture(captureJoinQuery, cat, names, "rev", cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := want.Size() / 8
	if budget < 2 {
		t.Fatalf("fixture too small: %d monomials", want.Size())
	}
	for _, w := range []int{1, 2, 8} {
		spill := t.TempDir()
		opts := cobra.Options{Workers: w, MaxResidentMonomials: budget, SpillDir: spill}
		ds, err := cobra.CaptureDataset(context.Background(), "captured", captureJoinQuery, cat, names, "rev", nil, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		shardedWithin(t, fmt.Sprintf("workers=%d", w), ds, budget, want)
		spillDirHoldsOnly(t, spill, "cobra-shards-*")
		if err := ds.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", w, err)
		}
		spillDirHoldsOnly(t, spill)
	}
}

// TestCaptureToShardsThenCompress: the dataset a budgeted CaptureDataset
// streams into its own spilling ShardedSet answers exactly what Capture's
// set does — polynomial statistics, compression and rows — for Workers ∈
// {1, 2, 8}.
func TestCaptureToShardsThenCompress(t *testing.T) {
	cat, names := captureFixture(t, 60)
	full, err := cobra.Capture(captureJoinQuery, cat, names, "rev", cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cobra.TreeFromPaths("Plans", names,
		[]string{"Std", "p_A"}, []string{"Std", "p_F1"},
		[]string{"Premium", "p_Y1"}, []string{"Premium", "p_V"})
	if err != nil {
		t.Fatal(err)
	}
	// One monomial per output row: no cut can merge monomials across
	// polynomials, so the bound admits the full size and the DP maximizes
	// expressiveness.
	bound := full.Size()
	want, err := core.CompressSource(full, cobra.Forest{tree}, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := cobra.NewAssignment(names)
	if err := a.Set("m2", 0.5); err != nil {
		t.Fatal(err)
	}
	asgs := []*cobra.Assignment{a, cobra.NewAssignment(names)}
	wantRows := cobra.Compile(full).EvalBatchN(asgs, nil, 1)
	ctx := context.Background()
	for _, w := range []int{1, 2, 8} {
		opts := cobra.Options{Workers: w, MaxResidentMonomials: full.Size() / 4, SpillDir: t.TempDir()}
		ds, err := cobra.CaptureDataset(ctx, "captured", captureJoinQuery, cat, names, "rev", cobra.Forest{tree}, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		defer ds.Close()
		if !ds.OutOfCore() || ds.Len() != full.Len() || ds.Size() != full.Size() {
			t.Fatalf("workers=%d: out of core %v, len/size %d/%d, want true, %d/%d", w, ds.OutOfCore(), ds.Len(), ds.Size(), full.Len(), full.Size())
		}
		got, err := ds.Compress(ctx, bound)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		resultsEqual(t, fmt.Sprintf("workers=%d: capture→compress", w), got, want)
		rows, err := ds.EvalBatch(ctx, asgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rowsEqual(t, rows, wantRows, fmt.Sprintf("workers=%d: captured EvalBatch", w))
	}
}

// TestCaptureLineageToShardsMatches: tuple-level capture at the facade,
// swept over worker counts, is the same set for every count, and a
// budgeted OpenDataset shards it within the budget without changing it.
func TestCaptureLineageToShardsMatches(t *testing.T) {
	cat, names := captureFixture(t, 80)
	annotated, err := cobra.AnnotateTuples(cat["Cust"], cobra.VarSpec{Prefix: "c", Columns: []string{"ID"}}, names, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat["Cust"] = annotated
	query := "SELECT Cust.Zip, Calls.Mo FROM Cust, Calls WHERE Cust.ID = Calls.CID AND Calls.Dur > 300"
	want, err := cobra.CaptureLineage(query, cat, names, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture produced no lineage rows")
	}
	budget := 1 + want.Size()/4
	for _, w := range []int{1, 2, 8} {
		got, err := cobra.CaptureLineage(query, cat, names, cobra.Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		setsEqual(t, fmt.Sprintf("workers=%d", w), got, want)
		spill := t.TempDir()
		ds := openDataset(t, got, nil, cobra.Options{Workers: w, MaxResidentMonomials: budget, SpillDir: spill})
		shardedWithin(t, fmt.Sprintf("workers=%d: sharded", w), ds, budget, want)
		if err := ds.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", w, err)
		}
		spillDirHoldsOnly(t, spill)
	}
}

// TestCaptureToShardsErrors: a budgeted capture that fails must not leave
// a dataset or a spill file behind.
func TestCaptureToShardsErrors(t *testing.T) {
	cat, names := captureFixture(t, 10)
	spill := t.TempDir()
	opts := cobra.Options{MaxResidentMonomials: 4, SpillDir: spill}
	ctx := context.Background()
	if _, err := cobra.CaptureDataset(ctx, "bad", "SELECT FROM", cat, names, "", nil, opts); err == nil {
		t.Fatal("want parse error")
	}
	_, err := cobra.CaptureDataset(ctx, "bad", captureJoinQuery, cat, names, "nope", nil, opts)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-column error, got %v", err)
	}
	spillDirHoldsOnly(t, spill)
}
