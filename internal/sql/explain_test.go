package sql

import (
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/relation"
)

func TestExplainRunningExample(t *testing.T) {
	out, err := Explain(revenueQuery, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Project [Cust.Zip, revenue]",
		"Sort",
		"GroupBy [Cust.Zip] aggregates [SUM",
		"HashJoin",
		"Scan Calls",
		"Scan Cust",
		"Scan Plans",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
	// Three tables joined left-deep: two hash joins.
	if strings.Count(out, "HashJoin") != 2 {
		t.Fatalf("expected 2 hash joins:\n%s", out)
	}
}

// TestExplainShowsPruning pins the live-column rule on the running example:
// the first join keeps 4 of its 6 input columns (the later join's keys, the
// SUM operand, the group key), the second 3 of 9; SELECT * prunes nothing.
func TestExplainShowsPruning(t *testing.T) {
	out, err := Explain(revenueQuery, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"HashJoin on Calls.CID = Cust.ID keep [Calls.Mo, Calls.Dur, Cust.Plan, Cust.Zip]\n",
		"HashJoin on Cust.Plan = Plans.Plan AND Calls.Mo = Plans.Mo keep [Calls.Dur, Cust.Zip, Plans.Price]\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
	out, err = Explain("SELECT * FROM Cust, Calls WHERE Cust.ID = Calls.CID", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if want := "keep [Cust.ID, Cust.Plan, Cust.Zip, Calls.CID, Calls.Mo, Calls.Dur]\n"; !strings.Contains(out, want) {
		t.Fatalf("SELECT * must keep every column, want %q:\n%s", want, out)
	}
	// A column read only by a predicate applied above the join stays until
	// that predicate has run; a join key nothing else reads does not.
	out, err = Explain("SELECT Cust.Zip FROM Cust, Calls WHERE Cust.ID = Calls.CID AND Calls.Dur > Cust.ID * 100", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if want := "keep [Cust.ID, Cust.Zip, Calls.Dur]\n"; !strings.Contains(out, want) {
		t.Fatalf("want %q:\n%s", want, out)
	}
}

func TestExplainPushdownVisible(t *testing.T) {
	out, err := Explain("SELECT ID FROM Cust, Plans WHERE Cust.Plan = Plans.Plan AND Zip = '10001'", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	// The single-table predicate must sit below the join, tested by the
	// Cust scan itself.
	joinPos := strings.Index(out, "HashJoin")
	scanPos := strings.Index(out, "Scan Cust (7 rows) where (Zip = 10001)\n")
	if joinPos < 0 || scanPos < joinPos || strings.Contains(out, "Filter") {
		t.Fatalf("pushdown not visible:\n%s", out)
	}
}

// TestExplainQ6Shape pins the plan of TPC-H Q6 (the text internal/datagen/
// tpch states): the lineitem scan tests all four conjuncts, in WHERE order,
// and no Filter runs.
func TestExplainQ6Shape(t *testing.T) {
	var cols []relation.Column
	for _, c := range []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"} {
		cols = append(cols, relation.Column{Name: c})
	}
	cat := engine.Catalog{"lineitem": relation.NewRelation("lineitem", relation.NewSchema(cols...))}
	out, err := Explain(`
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= '1994-01-01'
  AND l_shipdate < '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24`, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := "Project [revenue]\n" +
		"  GroupBy [] aggregates [SUM((l_extendedprice * l_discount))]\n" +
		"    Scan lineitem (0 rows) where (l_shipdate >= 1994-01-01) AND (l_shipdate < 1995-01-01)" +
		" AND (l_discount BETWEEN 0.05 AND 0.07) AND (l_quantity < 24)\n"
	if out != want {
		t.Fatalf("Q6 plan:\n%s\nwant:\n%s", out, want)
	}
}

func TestExplainCrossJoinAndLimit(t *testing.T) {
	out, err := Explain("SELECT Cust.ID FROM Cust, Plans WHERE Cust.ID > 6 LIMIT 3", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NestedLoopJoin on true (cross)") {
		t.Fatalf("cross join missing:\n%s", out)
	}
	if !strings.Contains(out, "Limit 3") {
		t.Fatalf("limit missing:\n%s", out)
	}
}

func TestExplainErrors(t *testing.T) {
	if _, err := Explain("not sql", testCatalog()); err == nil {
		t.Fatal("parse error should propagate")
	}
	if _, err := Explain("SELECT x FROM missing", testCatalog()); err == nil {
		t.Fatal("plan error should propagate")
	}
}
