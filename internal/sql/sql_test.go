package sql

import (
	"math"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// testCatalog builds the Figure-1 telephony database (concrete values).
func testCatalog() engine.Catalog {
	cust := relation.NewRelation("Cust", relation.NewSchema(
		relation.Column{Name: "ID", Kind: relation.KindInt},
		relation.Column{Name: "Plan", Kind: relation.KindString},
		relation.Column{Name: "Zip", Kind: relation.KindString},
	))
	for _, r := range []struct {
		id   int64
		plan string
		zip  string
	}{
		{1, "A", "10001"}, {2, "F1", "10001"}, {3, "SB1", "10002"},
		{4, "Y1", "10001"}, {5, "V", "10001"}, {6, "E", "10002"}, {7, "SB2", "10002"},
	} {
		cust.Append(relation.Int(r.id), relation.Str(r.plan), relation.Str(r.zip))
	}

	calls := relation.NewRelation("Calls", relation.NewSchema(
		relation.Column{Name: "CID", Kind: relation.KindInt},
		relation.Column{Name: "Mo", Kind: relation.KindInt},
		relation.Column{Name: "Dur", Kind: relation.KindFloat},
	))
	durs := map[int64][2]float64{
		1: {522, 480}, 2: {364, 327}, 3: {779, 805}, 4: {253, 290},
		5: {168, 121}, 6: {1044, 1130}, 7: {697, 671},
	}
	for cid, d := range durs {
		calls.Append(relation.Int(cid), relation.Int(1), relation.Float(d[0]))
		calls.Append(relation.Int(cid), relation.Int(3), relation.Float(d[1]))
	}

	plans := relation.NewRelation("Plans", relation.NewSchema(
		relation.Column{Name: "Plan", Kind: relation.KindString},
		relation.Column{Name: "Mo", Kind: relation.KindInt},
		relation.Column{Name: "Price", Kind: relation.KindFloat},
	))
	prices := map[string][2]float64{
		"A": {0.4, 0.5}, "F1": {0.35, 0.35}, "Y1": {0.3, 0.25}, "V": {0.25, 0.2},
		"SB1": {0.1, 0.1}, "SB2": {0.1, 0.15}, "E": {0.05, 0.05},
	}
	for plan, p := range prices {
		plans.Append(relation.Str(plan), relation.Int(1), relation.Float(p[0]))
		plans.Append(relation.Str(plan), relation.Int(3), relation.Float(p[1]))
	}

	return engine.Catalog{"Cust": cust, "Calls": calls, "Plans": plans}
}

const revenueQuery = `
SELECT Cust.Zip, SUM(Calls.Dur * Plans.Price) AS revenue
FROM Calls, Cust, Plans
WHERE Cust.Plan = Plans.Plan
  AND Cust.ID = Calls.CID
  AND Calls.Mo = Plans.Mo
GROUP BY Cust.Zip
ORDER BY Cust.Zip`

func TestRunningExampleQueryConcrete(t *testing.T) {
	out, err := Run(revenueQuery, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d, want 2", out.Len())
	}
	// Expected revenues are the coefficient sums of P1 and P2 in Example 2.
	want := map[string]float64{
		"10001": 208.8 + 240 + 127.4 + 114.45 + 75.9 + 72.5 + 42 + 24.2,
		"10002": 77.9 + 80.5 + 52.2 + 56.5 + 69.7 + 100.65,
	}
	for _, row := range out.Rows {
		zip := row.Values[0].S()
		got, _ := row.Values[1].AsFloat()
		if math.Abs(got-want[zip]) > 1e-9 {
			t.Errorf("zip %s: revenue = %v, want %v", zip, got, want[zip])
		}
	}
}

func TestParseRoundsTrip(t *testing.T) {
	stmt, err := Parse(revenueQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 3 || len(stmt.GroupBy) != 1 || stmt.Limit != -1 {
		t.Fatalf("parsed: %+v", stmt)
	}
	if got := stmt.String(); !strings.Contains(got, "GROUP BY Cust.Zip") {
		t.Fatalf("String() = %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t LIMIT -1",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t ORDER",
		"SELECT a b c FROM t",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT a FROM t WHERE a LIKE 5",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT 'unterminated FROM t",
		"SELECT a! FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	cat := testCatalog()
	bad := []string{
		"SELECT x FROM NoSuchTable",
		"SELECT NoSuchCol FROM Cust",
		"SELECT Plan FROM Cust, Plans",            // ambiguous
		"SELECT Cust.Zip FROM Cust, Cust",         // duplicate alias
		"SELECT Zip, SUM(ID) FROM Cust",           // Zip not grouped
		"SELECT Zip FROM Cust HAVING Zip <> ''",   // HAVING without aggregation
		"SELECT * , Zip FROM Cust",                // star + items unsupported syntax
		"SELECT SUM(SUM(ID)) FROM Cust",           // nested aggregate
		"SELECT Zip FROM Cust ORDER BY NoSuchCol", // unknown order key
		"SELECT ID FROM Cust WHERE ID IN (Zip)",   // non-literal IN list
		"SELECT * FROM Cust GROUP BY Zip",         // star with aggregation
	}
	for _, q := range bad {
		if _, err := Run(q, cat); err == nil {
			t.Errorf("Run(%q) succeeded, want error", q)
		}
	}
}

func TestSelectStarAndWhere(t *testing.T) {
	out, err := Run("SELECT * FROM Cust WHERE Zip = '10002'", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || out.Schema.Len() != 3 {
		t.Fatalf("rows=%d cols=%d", out.Len(), out.Schema.Len())
	}
}

func TestWhereInBetweenLike(t *testing.T) {
	cat := testCatalog()
	out, err := Run("SELECT ID FROM Cust WHERE Plan IN ('SB1', 'SB2')", cat)
	if err != nil || out.Len() != 2 {
		t.Fatalf("IN: %d rows, %v", out.Len(), err)
	}
	out, err = Run("SELECT ID FROM Cust WHERE ID BETWEEN 2 AND 4", cat)
	if err != nil || out.Len() != 3 {
		t.Fatalf("BETWEEN: %d rows, %v", out.Len(), err)
	}
	out, err = Run("SELECT ID FROM Cust WHERE Plan LIKE 'SB%'", cat)
	if err != nil || out.Len() != 2 {
		t.Fatalf("LIKE: %d rows, %v", out.Len(), err)
	}
	out, err = Run("SELECT ID FROM Cust WHERE Plan NOT LIKE 'SB%' AND NOT Zip = '10001'", cat)
	if err != nil || out.Len() != 1 {
		t.Fatalf("NOT: %d rows, %v", out.Len(), err)
	}
	out, err = Run("SELECT ID FROM Cust WHERE ID = 1 OR ID = 7", cat)
	if err != nil || out.Len() != 2 {
		t.Fatalf("OR: %d rows, %v", out.Len(), err)
	}
}

func TestExplicitJoinSyntax(t *testing.T) {
	q := `SELECT Cust.ID FROM Cust JOIN Calls ON Cust.ID = Calls.CID WHERE Calls.Mo = 1`
	out, err := Run(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 7 {
		t.Fatalf("rows = %d, want 7", out.Len())
	}
	q2 := `SELECT c.ID FROM Cust AS c INNER JOIN Calls AS l ON c.ID = l.CID WHERE l.Mo = 3 AND c.Zip = '10001'`
	out, err = Run(q2, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("aliased join rows = %d, want 4", out.Len())
	}
}

func TestAggregatesAndHaving(t *testing.T) {
	q := `SELECT Zip, COUNT(*) AS n, MIN(ID) lo, MAX(ID) hi
	      FROM Cust GROUP BY Zip HAVING COUNT(*) > 3 ORDER BY Zip`
	out, err := Run(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (only 10001 has 4 customers)", out.Len())
	}
	r := out.Rows[0]
	if r.Values[0].S() != "10001" || r.Values[1].I() != 4 || r.Values[2].I() != 1 || r.Values[3].I() != 5 {
		t.Fatalf("row = %v", r.Values)
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	out, err := Run("SELECT COUNT(*) AS n, AVG(ID) FROM Cust", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows[0].Values[0].I() != 7 || out.Rows[0].Values[1].F() != 4 {
		t.Fatalf("row = %v", out.Rows[0].Values)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	out, err := Run("SELECT ID FROM Cust ORDER BY ID DESC LIMIT 3", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || out.Rows[0].Values[0].I() != 7 || out.Rows[2].Values[0].I() != 5 {
		t.Fatalf("rows = %v", out.Rows)
	}
}

func TestOrderByAliasAndAggregate(t *testing.T) {
	q := `SELECT Zip, COUNT(*) AS n FROM Cust GROUP BY Zip ORDER BY n DESC`
	out, err := Run(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values[1].I() != 4 {
		t.Fatalf("first row should be the larger group: %v", out.Rows)
	}
	// Ordering by an aggregate not in the select list.
	q2 := `SELECT Zip FROM Cust GROUP BY Zip ORDER BY COUNT(*) ASC`
	out, err = Run(q2, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values[0].S() != "10002" {
		t.Fatalf("rows = %v", out.Rows)
	}
}

func TestArithmeticInSelect(t *testing.T) {
	out, err := Run("SELECT ID * 2 + 1 AS x FROM Cust WHERE ID = 3", testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values[0].I() != 7 {
		t.Fatalf("x = %v", out.Rows[0].Values[0])
	}
	out, err = Run("SELECT -ID AS neg FROM Cust WHERE ID = 3", testCatalog())
	if err != nil || out.Rows[0].Values[0].I() != -3 {
		t.Fatalf("neg = %v, %v", out.Rows, err)
	}
}

func TestSymbolicQueryThroughSQL(t *testing.T) {
	// Parameterize prices: Price -> Price · p_<plan> · m_<mo>, then run the
	// revenue query and check we get Example 2's P1 exactly.
	cat := testCatalog()
	names := polynomial.NewNames()
	plans := cat["Plans"].Clone()
	varFor := map[string]string{
		"A": "p1", "F1": "f1", "Y1": "y1", "V": "v", "SB1": "b1", "SB2": "b2", "E": "e",
	}
	for i := range plans.Rows {
		plan := plans.Rows[i].Values[0].S()
		mo := plans.Rows[i].Values[1].I()
		price := plans.Rows[i].Values[2].F()
		moVar := "m1"
		if mo == 3 {
			moVar = "m3"
		}
		p := polynomial.New(polynomial.Mono(price,
			polynomial.T(names.Var(varFor[plan])), polynomial.T(names.Var(moVar))))
		plans.Rows[i].Values[2] = relation.Poly(p)
	}
	cat["Plans"] = plans

	out, err := Run(revenueQuery, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	p1 := polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names)
	p2 := polynomial.MustParse(
		"77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3", names)
	for _, row := range out.Rows {
		got := row.Values[1]
		if got.Kind() != relation.KindPoly {
			t.Fatalf("revenue kind = %s", got.Kind())
		}
		want := p1
		if row.Values[0].S() == "10002" {
			want = p2
		}
		if !polynomial.AlmostEqual(got.P(), want, 1e-9) {
			t.Fatalf("zip %s: %s", row.Values[0].S(), got.P().String(names))
		}
	}
}

func TestCommentsAndCaseInsensitivity(t *testing.T) {
	q := `select id -- trailing comment
	      from Cust where zip = '10001' order by id limit 2`
	out, err := Run(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || out.Rows[0].Values[0].I() != 1 {
		t.Fatalf("rows = %v", out.Rows)
	}
}

func TestEscapedQuoteInString(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t WHERE s = 'O''Brien'`)
	if err != nil {
		t.Fatal(err)
	}
	b := stmt.Where.(*Binary)
	if b.R.(*StringLit).Val != "O'Brien" {
		t.Fatalf("string = %q", b.R.(*StringLit).Val)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	// No equi predicate between Cust and Plans: planner must fall back to a
	// nested-loop cross join and still apply the non-equi predicate.
	q := `SELECT Cust.ID FROM Cust, Plans WHERE Cust.ID > 6 AND Plans.Mo = 1`
	out, err := Run(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 7 { // 1 customer × 7 plans
		t.Fatalf("rows = %d, want 7", out.Len())
	}
}

func TestCaseExpression(t *testing.T) {
	cat := testCatalog()
	// Non-aggregate CASE in SELECT.
	out, err := Run(`SELECT ID, CASE WHEN Zip = '10001' THEN 'city' ELSE 'suburb' END AS area
	                 FROM Cust ORDER BY ID`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values[1].S() != "city" || out.Rows[2].Values[1].S() != "suburb" {
		t.Fatalf("case rows: %v", out.Rows)
	}
	// CASE without ELSE yields NULL.
	out, err = Run(`SELECT CASE WHEN ID > 100 THEN 1 END AS x FROM Cust WHERE ID = 1`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rows[0].Values[0].IsNull() {
		t.Fatalf("expected NULL, got %s", out.Rows[0].Values[0])
	}
	// Multiple WHEN branches, first match wins.
	out, err = Run(`SELECT CASE WHEN ID < 3 THEN 'low' WHEN ID < 6 THEN 'mid' ELSE 'high' END AS band
	                FROM Cust ORDER BY ID`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values[0].S() != "low" || out.Rows[3].Values[0].S() != "mid" || out.Rows[6].Values[0].S() != "high" {
		t.Fatalf("bands: %v", out.Rows)
	}
}

func TestCaseInsideAggregate(t *testing.T) {
	cat := testCatalog()
	out, err := Run(`SELECT Zip,
	                 SUM(CASE WHEN Plan LIKE 'SB%' THEN 1 ELSE 0 END) AS sb
	                 FROM Cust GROUP BY Zip ORDER BY Zip`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	if f, _ := out.Rows[0].Values[1].AsFloat(); f != 0 {
		t.Fatalf("10001 SB count = %v", out.Rows[0].Values[1])
	}
	if f, _ := out.Rows[1].Values[1].AsFloat(); f != 2 {
		t.Fatalf("10002 SB count = %v", out.Rows[1].Values[1])
	}
}

func TestCaseParseErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT CASE FROM t",
		"SELECT CASE WHEN 1 = 1 THEN 2 FROM t",
		"SELECT CASE WHEN 1 = 1 ELSE 2 END FROM t",
		"SELECT CASE WHEN THEN 2 END FROM t",
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

// TestEquiJoinMixedNumericKeys: an INT column equi-joined to a FLOAT column
// matches exactly the rows the same predicate matches as a Filter over the
// cross product (which is how the planner runs it once the left side is an
// expression), including the two zeros; GROUP BY merges the kinds the same
// way. The hash join used to tag INT and FLOAT keys apart and return no
// row.
func TestEquiJoinMixedNumericKeys(t *testing.T) {
	a := relation.NewRelation("A", relation.NewSchema(relation.Column{Name: "x"}, relation.Column{Name: "n"}))
	for i, x := range []relation.Value{relation.Int(1), relation.Int(2), relation.Int(0), relation.Float(math.Copysign(0, -1)), relation.Null(), relation.Int(2)} {
		a.Append(x, relation.Int(int64(i)))
	}
	b := relation.NewRelation("B", relation.NewSchema(relation.Column{Name: "y"}, relation.Column{Name: "w"}))
	for i, y := range []relation.Value{relation.Float(2), relation.Float(0), relation.Float(1.5), relation.Int(2), relation.Null()} {
		b.Append(y, relation.Int(int64(10*i)))
	}
	cat := engine.Catalog{"A": a, "B": b}
	render := func(q string) string {
		out, err := Run(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return out.String()
	}
	hashed := render("SELECT A.n, B.w FROM A, B WHERE A.x = B.y")
	filtered := render("SELECT A.n, B.w FROM A, B WHERE A.x + 0 = B.y")
	if hashed != filtered {
		t.Fatalf("hash join:\n%s\nfilter over the cross product:\n%s", hashed, filtered)
	}
	if n := strings.Count(hashed, "\n") - 1; n != 6 { // 2↔{2.0, 2} twice, 0↔0.0, -0.0↔0.0
		t.Fatalf("%d joined rows, want 6:\n%s", n, hashed)
	}
	ex, err := Explain("SELECT A.n, B.w FROM A, B WHERE A.x = B.y", cat)
	if err != nil || !strings.Contains(ex, "HashJoin") {
		t.Fatalf("not a hash join: %v\n%s", err, ex)
	}
	if ex, err = Explain("SELECT A.n, B.w FROM A, B WHERE A.x + 0 = B.y", cat); err != nil || !strings.Contains(ex, "NestedLoopJoin") {
		t.Fatalf("not a filter over the cross product: %v\n%s", err, ex)
	}
	// Mixed-kind GROUP BY: {1}, {2, 2}, {0, -0.0}, {NULL}.
	groups, err := Run("SELECT x, COUNT(*) AS c FROM A GROUP BY x", cat)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for _, row := range groups.Rows {
		counts = append(counts, row.Values[1].I())
	}
	if len(counts) != 4 || counts[0] != 1 || counts[1] != 2 || counts[2] != 2 || counts[3] != 1 {
		t.Fatalf("group counts = %v, want [1 2 2 1]", counts)
	}
	b2 := relation.NewRelation("B", b.Schema)
	b2.Rows = append(b2.Rows, b.Rows...)
	b2.Append(relation.Float(2), relation.Int(50))
	merged, err := Run("SELECT y, COUNT(*) AS c FROM B GROUP BY y", engine.Catalog{"B": b2})
	if err != nil {
		t.Fatal(err)
	}
	// FLOAT 2, INT 2 and FLOAT 2 again are one group, shown as first seen.
	if merged.Len() != 4 || merged.Rows[0].Values[0].Kind() != relation.KindFloat || merged.Rows[0].Values[1].I() != 3 {
		t.Fatalf("mixed-kind groups:\n%s", merged)
	}
}
