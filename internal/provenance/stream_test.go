package provenance

import (
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// spjQuery is a join whose output provenance is one polynomial per row —
// no aggregation, so nothing materializes the provenance but the capture
// side itself.
const spjQuery = `
SELECT Cust.Zip, Calls.Mo, Calls.Dur * Plans.Price AS rev
FROM Calls, Cust, Plans
WHERE Cust.Plan = Plans.Plan
  AND Cust.ID = Calls.CID
  AND Calls.Mo = Plans.Mo`

// TestCaptureStreamMatchesCapture: streaming capture into an in-memory
// Set sink must reproduce Capture's keys, polynomials and order exactly,
// for every worker count — with both an explicit and an inferred value
// column.
func TestCaptureStreamMatchesCapture(t *testing.T) {
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: 300}), names)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{spjQuery, telephony.RevenueQuery} {
		for _, valueCol := range []string{"rev", ""} {
			if query == telephony.RevenueQuery {
				if valueCol == "" {
					continue
				}
				valueCol = "revenue"
			}
			want, err := Capture(query, cat, names, valueCol)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 8} {
				got := polynomial.NewSet(names)
				if err := CaptureStream(query, cat, valueCol, got, w); err != nil {
					t.Fatalf("workers=%d valueCol=%q: %v", w, valueCol, err)
				}
				assertSameSet(t, want, got, w)
			}
		}
	}
}

// TestCaptureStreamToBuilderBounded: streaming a join whose full
// provenance exceeds the budget into a ShardBuilder must stay within the
// budget and materialize to exactly Capture's set, for every worker
// count.
func TestCaptureStreamToBuilderBounded(t *testing.T) {
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: 500}), names)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Capture(spjQuery, cat, names, "rev")
	if err != nil {
		t.Fatal(err)
	}
	budget := want.Size() / 8
	if budget < 2 {
		t.Fatalf("fixture too small: %d monomials", want.Size())
	}
	for _, w := range []int{1, 2, 8} {
		b := polynomial.NewShardBuilder(names, polynomial.ShardOptions{
			MaxResidentMonomials: budget,
			SpillDir:             t.TempDir(),
		})
		if err := CaptureStream(spjQuery, cat, "rev", b, w); err != nil {
			b.Discard()
			t.Fatalf("workers=%d: %v", w, err)
		}
		ss, err := b.Finish()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if peak := ss.PeakResidentMonomials(); peak > budget {
			t.Errorf("workers=%d: peak resident %d exceeds budget %d", w, peak, budget)
		}
		if ss.SpilledShards() == 0 {
			t.Errorf("workers=%d: expected spills (size %d, budget %d)", w, ss.Size(), budget)
		}
		got, err := ss.Materialize()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertSameSet(t, want, got, w)
		if err := ss.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", w, err)
		}
	}
}

// TestCaptureStreamErrors: planner errors, an unknown value column, and a
// symbolic-column-free result must surface the same way Capture reports
// them.
func TestCaptureStreamErrors(t *testing.T) {
	names := polynomial.NewNames()
	cat := telephony.Generate(telephony.Config{Customers: 10})
	sink := polynomial.NewSet(names)

	if err := CaptureStream("SELECT FROM", cat, "", sink, 1); err == nil {
		t.Fatal("want parse error")
	}
	if err := CaptureStream("SELECT Cust.Zip FROM Cust", cat, "nope", sink, 1); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-column error, got %v", err)
	}
	err := CaptureStream("SELECT Cust.Zip FROM Cust", cat, "", sink, 1)
	if err == nil || !strings.Contains(err.Error(), "no symbolic column") {
		t.Fatalf("want no-symbolic-column error, got %v", err)
	}
	// Zero-row symbolic query without a value column: same error.
	err = CaptureStream("SELECT Cust.Zip FROM Cust WHERE Cust.ID < 0", cat, "", sink, 1)
	if err == nil || !strings.Contains(err.Error(), "no symbolic column") {
		t.Fatalf("want no-symbolic-column error on empty result, got %v", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("error paths added %d polynomials", sink.Len())
	}
}

func assertSameSet(t *testing.T, want, got *polynomial.Set, workers int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("workers=%d: %d polynomials, want %d", workers, got.Len(), want.Len())
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] {
			t.Fatalf("workers=%d: key %d = %q, want %q", workers, i, got.Keys[i], want.Keys[i])
		}
		if !polynomial.Equal(got.Polys[i], want.Polys[i]) {
			t.Fatalf("workers=%d: polynomial %d differs", workers, i)
		}
	}
}

// TestCaptureStreamLateSecondSymbolicColumn: a second symbolic column
// whose first polynomial value appears after the first buffered batch
// must still fail with Capture's ambiguity error, not silently capture
// the first column.
func TestCaptureStreamLateSecondSymbolicColumn(t *testing.T) {
	names := polynomial.NewNames()
	rel := relation.NewRelation("T", relation.NewSchema(
		relation.Column{Name: "A", Kind: relation.KindPoly},
		relation.Column{Name: "B", Kind: relation.KindFloat},
	))
	rows := captureBatchRows + 50
	x := polynomial.VarPoly(names.Var("x"))
	for i := 0; i < rows; i++ {
		b := relation.Float(1.0)
		if i > captureBatchRows+10 {
			b = relation.Poly(polynomial.VarPoly(names.Var("y")))
		}
		rel.Append(relation.Poly(x), b)
	}
	cat := engine.Catalog{"T": rel}
	query := "SELECT T.A AS a, T.B AS b FROM T"

	// The materialized resolver refuses.
	if _, err := Capture(query, cat, names, ""); err == nil ||
		!strings.Contains(err.Error(), "multiple symbolic columns") {
		t.Fatalf("Capture: want ambiguity error, got %v", err)
	}
	// The streaming resolver must refuse too, for every worker count.
	for _, w := range []int{1, 8} {
		err := CaptureStream(query, cat, "", polynomial.NewSet(names), w)
		if err == nil || !strings.Contains(err.Error(), "multiple symbolic columns") {
			t.Fatalf("workers=%d: want ambiguity error, got %v", w, err)
		}
	}
	// An explicit column keeps working on the same data.
	got := polynomial.NewSet(names)
	if err := CaptureStream(query, cat, "a", got, 2); err != nil {
		t.Fatal(err)
	}
	if got.Len() != rows {
		t.Fatalf("explicit column captured %d rows, want %d", got.Len(), rows)
	}
}
