package cobra_test

import (
	"context"
	"strings"
	"testing"

	cobra "github.com/cobra-prov/cobra"
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

// TestCaptureToShardsBoundedAndIdentical: the facade's streaming capture
// must stay within the residency budget on a join whose full provenance
// exceeds it, and materialize to exactly Capture's set for Workers ∈
// {1, 2, 8}.
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
		opts := cobra.Options{Workers: w, MaxResidentMonomials: budget}
		ss, err := cobra.CaptureToShards(captureJoinQuery, cat, names, "rev", opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if peak := ss.PeakResidentMonomials(); peak > budget {
			t.Errorf("workers=%d: peak resident %d exceeds budget %d", w, peak, budget)
		}
		if ss.SpilledShards() == 0 {
			t.Errorf("workers=%d: no spills (size %d, budget %d)", w, ss.Size(), budget)
		}
		got, err := ss.Materialize()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d polynomials, want %d", w, got.Len(), want.Len())
		}
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] || got.Polys[i].String(names) != want.Polys[i].String(names) {
				t.Fatalf("workers=%d: polynomial %d differs", w, i)
			}
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", w, err)
		}
	}
}

// TestCaptureToShardsThenCompress: the captured sharded set must flow
// straight into the streamed compression/valuation pipeline.
func TestCaptureToShardsThenCompress(t *testing.T) {
	cat, names := captureFixture(t, 60)
	full, err := cobra.Capture(captureJoinQuery, cat, names, "rev", cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := cobra.Options{Workers: 2, MaxResidentMonomials: full.Size() / 4}
	ss, err := cobra.CaptureToShards(captureJoinQuery, cat, names, "rev", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

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
	want, err := cobra.Compress(full, cobra.Forest{tree}, bound, cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := cobra.OpenDataset("captured", ss, cobra.Forest{tree}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Compress(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want.Size || got.NumMeta != want.NumMeta || !got.Cuts[0].Equal(want.Cuts[0]) {
		t.Fatalf("capture→compress differs: %+v vs %+v", got, want)
	}
}

// TestCaptureLineageToShardsMatches: tuple-level streaming capture at the
// facade, swept over worker counts.
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
	for _, w := range []int{1, 2, 8} {
		opts := cobra.Options{Workers: w, MaxResidentMonomials: 1 + want.Size()/4}
		ss, err := cobra.CaptureLineageToShards(query, cat, names, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got, err := ss.Materialize()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d rows, want %d", w, got.Len(), want.Len())
		}
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] || got.Polys[i].String(names) != want.Polys[i].String(names) {
				t.Fatalf("workers=%d: row %d differs", w, i)
			}
		}
		if err := ss.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", w, err)
		}
	}
}

// TestCaptureToShardsErrors: failures must not leave a usable or leaking
// set behind.
func TestCaptureToShardsErrors(t *testing.T) {
	cat, names := captureFixture(t, 10)
	if _, err := cobra.CaptureToShards("SELECT FROM", cat, names, "", cobra.Options{}); err == nil {
		t.Fatal("want parse error")
	}
	_, err := cobra.CaptureToShards(captureJoinQuery, cat, names, "nope", cobra.Options{})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-column error, got %v", err)
	}
}
