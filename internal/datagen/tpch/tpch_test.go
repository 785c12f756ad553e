package tpch

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/sql"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// smallCat is a shared tiny catalog for the test suite.
func smallCat(t testing.TB) map[string]*relation.Relation {
	t.Helper()
	return Generate(Config{SF: 0.002})
}

func TestGenerateShape(t *testing.T) {
	cat := smallCat(t)
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		rel, ok := cat[name]
		if !ok || rel.Len() == 0 {
			t.Fatalf("table %s missing or empty", name)
		}
	}
	if cat["region"].Len() != 5 || cat["nation"].Len() != 25 {
		t.Fatal("fixed tables wrong size")
	}
	if cat["partsupp"].Len() != 4*cat["part"].Len() {
		t.Fatal("partsupp should have 4 rows per part")
	}
	if cat["lineitem"].Len() < cat["orders"].Len() {
		t.Fatal("lineitem should be larger than orders")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(Config{SF: 0.002})
	b := Generate(Config{SF: 0.002})
	if a["lineitem"].Len() != b["lineitem"].Len() {
		t.Fatal("row counts differ")
	}
	for i := range a["lineitem"].Rows {
		ra, rb := a["lineitem"].Rows[i], b["lineitem"].Rows[i]
		for j := range ra.Values {
			if !ra.Values[j].Equal(rb.Values[j]) {
				t.Fatalf("row %d col %d: %s vs %s", i, j, ra.Values[j], rb.Values[j])
			}
		}
	}
}

func TestLineitemInvariants(t *testing.T) {
	cat := smallCat(t)
	li := cat["lineitem"]
	s := li.Schema
	idx := func(n string) int {
		i, err := s.Index(n)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	disc, qty, ship, month, status := idx("l_discount"), idx("l_quantity"), idx("l_shipdate"), idx("l_shipmonth"), idx("l_linestatus")
	for _, row := range li.Rows {
		if d := row.Values[disc].F(); d < 0 || d > 0.10 {
			t.Fatalf("discount %v out of range", d)
		}
		if q := row.Values[qty].F(); q < 1 || q > 50 {
			t.Fatalf("quantity %v out of range", q)
		}
		sd := row.Values[ship].S()
		if sd < "1992-01-02" || sd > "1999-01-01" {
			t.Fatalf("shipdate %s out of range", sd)
		}
		if got, want := row.Values[month].S(), sd[:7]; got != want {
			t.Fatalf("shipmonth %s != %s", got, want)
		}
		st := row.Values[status].S()
		if (sd > "1995-06-17") != (st == "O") {
			t.Fatalf("linestatus %s inconsistent with shipdate %s", st, sd)
		}
	}
}

func TestAllQueriesRunConcrete(t *testing.T) {
	cat := smallCat(t)
	for _, q := range Queries {
		out, err := sql.Run(q.Full, cat)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if q.Name != "Q3" && out.Len() == 0 { // Q3 can legitimately be empty at tiny SF
			t.Errorf("%s returned no rows", q.Name)
		}
	}
}

func TestQ1AggregatesConsistent(t *testing.T) {
	cat := smallCat(t)
	out, err := sql.Run(Q1, cat)
	if err != nil {
		t.Fatal(err)
	}
	// avg_qty = sum_qty / count_order for every group.
	for _, row := range out.Rows {
		sumQty, _ := row.Values[2].AsFloat()
		avgQty, _ := row.Values[6].AsFloat()
		n := float64(row.Values[9].I())
		if n == 0 {
			t.Fatal("empty group")
		}
		if diff := avgQty - sumQty/n; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("avg inconsistency: %v vs %v/%v", avgQty, sumQty, n)
		}
	}
}

func TestInstrumentByShipMonthProvenance(t *testing.T) {
	cat := smallCat(t)
	names := polynomial.NewNames()
	inst, err := InstrumentByShipMonth(cat, names)
	if err != nil {
		t.Fatal(err)
	}
	set, err := provenance.Capture(Q1Prov, inst, names, "revenue")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 || set.Size() == 0 {
		t.Fatal("no provenance captured")
	}
	// Each monomial must reference exactly one month variable.
	tree := DateTree(names)
	for _, p := range set.Polys {
		for _, m := range p.Mons {
			count := 0
			for _, term := range m.Terms {
				if tree.LeafByVar(term.Var) != abstraction.NoNode {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("monomial with %d month vars", count)
			}
		}
	}
	// Compressing with the date tree reduces size monotonically with bound.
	res, err := core.DPSingleTreeSource(set, tree, set.Size()/2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > set.Size()/2 {
		t.Fatalf("compression exceeded bound: %d > %d", res.Size, set.Size()/2)
	}
}

func TestInstrumentByNationAndRegionTree(t *testing.T) {
	cat := smallCat(t)
	names := polynomial.NewNames()
	inst, err := InstrumentBySupplierNation(cat, names)
	if err != nil {
		t.Fatal(err)
	}
	set, err := provenance.Capture(Q5Prov, inst, names, "revenue")
	if err != nil {
		t.Fatal(err)
	}
	tree := NationRegionTree(names)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tree.Leaves()); got != 25 {
		t.Fatalf("nation leaves = %d", got)
	}
	// Region cut (5 metas) is always a valid compression.
	cut, err := tree.CutOf("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE_EAST")
	if err != nil {
		t.Fatal(err)
	}
	comp := abstraction.Apply(set, 1, cut)
	if comp.Size() > set.Size() {
		t.Fatal("region cut must not grow the provenance")
	}
}

func TestCommutationTPCH(t *testing.T) {
	// The correctness guarantee holds on TPC-H too: scale two months'
	// prices, compare polynomial valuation vs re-execution (Q6).
	cat := smallCat(t)
	names := polynomial.NewNames()
	inst, err := InstrumentByShipMonth(cat, names)
	if err != nil {
		t.Fatal(err)
	}
	a := valuation.New(names)
	a.SetVar(names.Var("mo_1994_03"), 1.2)
	a.SetVar(names.Var("mo_1994_04"), 0.7)
	rep, err := provenance.CheckCommutation(Q6Prov, inst, names, "revenue", a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok(1e-9) {
		t.Fatalf("commutation violated: %+v", rep)
	}
}

func TestDateTreeShape(t *testing.T) {
	names := polynomial.NewNames()
	tree := DateTree(names)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tree.Leaves()); got != 84 {
		t.Fatalf("leaves = %d, want 84", got)
	}
	// 1 root + 7 years + 28 quarters + 84 months = 120 nodes.
	if tree.Len() != 120 {
		t.Fatalf("nodes = %d, want 120", tree.Len())
	}
	if _, err := tree.CutOf("y1992", "y1993", "y1994", "y1995", "y1996", "y1997", "y1998"); err != nil {
		t.Fatal(err)
	}
}

func TestScaleCount(t *testing.T) {
	if scaleCount(10000, 0.01, 10) != 100 {
		t.Fatal("scale 0.01")
	}
	if scaleCount(10000, 0.00001, 10) != 10 {
		t.Fatal("minimum not applied")
	}
}

func TestQ12CountsPartitionLineitems(t *testing.T) {
	cat := smallCat(t)
	out, err := sql.Run(Q12, cat)
	if err != nil {
		t.Fatal(err)
	}
	// high + low must equal the total matching lineitems per ship mode.
	check, err := sql.Run(`SELECT l_shipmode, COUNT(*) AS n FROM orders, lineitem
		WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
		AND l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
		GROUP BY l_shipmode ORDER BY l_shipmode`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != check.Len() {
		t.Fatalf("groups: %d vs %d", out.Len(), check.Len())
	}
	for i := range out.Rows {
		hi, _ := out.Rows[i].Values[1].AsFloat()
		lo, _ := out.Rows[i].Values[2].AsFloat()
		total := float64(check.Rows[i].Values[1].I())
		if hi+lo != total {
			t.Fatalf("%s: %v + %v != %v", out.Rows[i].Values[0].S(), hi, lo, total)
		}
	}
}

func TestQ14RatioInRange(t *testing.T) {
	cat := smallCat(t)
	out, err := sql.Run(Q14, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	ratio, ok := out.Rows[0].Values[0].AsFloat()
	if !ok || ratio < 0 || ratio > 100 {
		t.Fatalf("promo_revenue = %v", out.Rows[0].Values[0])
	}
}

func TestQ12ProvCommutation(t *testing.T) {
	// CASE-gated sums still satisfy the commutation guarantee.
	cat := smallCat(t)
	names := polynomial.NewNames()
	inst, err := InstrumentByShipMonth(cat, names)
	if err != nil {
		t.Fatal(err)
	}
	a := valuation.New(names)
	a.SetVar(names.Var("mo_1994_05"), 1.3)
	rep, err := provenance.CheckCommutation(Q12Prov, inst, names, "revenue", a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok(1e-9) {
		t.Fatalf("commutation violated: %+v", rep)
	}
}
