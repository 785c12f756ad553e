package sql

import (
	"errors"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/relation"
)

// stream is how a streaming consumer runs a query: Open, then the
// engine's one pull loop.
func stream(query string, cat engine.Catalog, fn func(relation.Tuple) error) error {
	plan, err := Open(query, cat)
	if err != nil {
		return err
	}
	return engine.Stream(plan, fn)
}

// TestStreamMatchesRun: Open + engine.Stream must deliver exactly Run's
// rows in Run's order, and Open must expose the result schema before
// execution.
func TestStreamMatchesRun(t *testing.T) {
	cat := testCatalog()
	query := `SELECT Cust.Zip, SUM(Calls.Dur * Plans.Price) AS revenue
	          FROM Calls, Cust, Plans
	          WHERE Cust.Plan = Plans.Plan AND Cust.ID = Calls.CID AND Calls.Mo = Plans.Mo
	          GROUP BY Cust.Zip ORDER BY Cust.Zip`

	want, err := Run(query, cat)
	if err != nil {
		t.Fatal(err)
	}
	it, err := Open(query, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Schema().Len(); got != want.Schema.Len() {
		t.Fatalf("Open schema has %d columns, Run result %d", got, want.Schema.Len())
	}

	var rows []relation.Tuple
	if err := stream(query, cat, func(tu relation.Tuple) error {
		// Streamed tuples are valid only until the callback returns
		// (row-validity contract): clone to retain.
		rows = append(rows, tu.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want.Rows) {
		t.Fatalf("streamed %d rows, Run produced %d", len(rows), len(want.Rows))
	}
	for i := range rows {
		for j := range rows[i].Values {
			if rows[i].Values[j].String() != want.Rows[i].Values[j].String() {
				t.Fatalf("row %d col %d: %s vs %s", i, j,
					rows[i].Values[j].String(), want.Rows[i].Values[j].String())
			}
		}
	}
}

// TestStreamErrors: parse and plan failures surface before any row is
// delivered; a callback error aborts the stream.
func TestStreamErrors(t *testing.T) {
	cat := testCatalog()
	if err := stream("SELECT FROM", cat, func(relation.Tuple) error { return nil }); err == nil {
		t.Fatal("want parse error")
	}
	if err := stream("SELECT x.y FROM Nope", cat, func(relation.Tuple) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "Nope") {
		t.Fatalf("want unknown-table error, got %v", err)
	}
	boom := errors.New("stop")
	calls := 0
	err := stream("SELECT Cust.ID FROM Cust", cat, func(relation.Tuple) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want callback error, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after failing, want 1", calls)
	}
}
