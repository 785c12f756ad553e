package engine

import (
	"math"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

func col(t testing.TB, s *relation.Schema, name string) *ColRef {
	t.Helper()
	i, err := s.Index(name)
	if err != nil {
		t.Fatal(err)
	}
	return &ColRef{Idx: i, Name: name}
}

func testRel(t testing.TB) *relation.Relation {
	t.Helper()
	s := relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "grp", Kind: relation.KindString},
		relation.Column{Name: "val", Kind: relation.KindFloat},
	)
	r := relation.NewRelation("t", s)
	r.Append(relation.Int(1), relation.Str("a"), relation.Float(10))
	r.Append(relation.Int(2), relation.Str("a"), relation.Float(20))
	r.Append(relation.Int(3), relation.Str("b"), relation.Float(30))
	r.Append(relation.Int(4), relation.Str("b"), relation.Float(40))
	r.Append(relation.Int(5), relation.Str("c"), relation.Float(50))
	return r
}

func TestScanAndCollect(t *testing.T) {
	r := testRel(t)
	out, err := Collect("out", NewScan(r, ""))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.Schema.Cols[0].Qualified() != "t.id" {
		t.Fatalf("qualifier = %q", out.Schema.Cols[0].Qualified())
	}
	aliased := NewScan(r, "x")
	if aliased.Schema().Cols[0].Qualified() != "x.id" {
		t.Fatal("alias not applied")
	}
}

func TestFilterAndComparisons(t *testing.T) {
	r := testRel(t)
	sc := NewScan(r, "")
	pred := &Cmp{Op: OpGt, L: col(t, sc.Schema(), "val"), R: &Lit{relation.Float(25)}}
	out, err := Collect("out", NewFilter(sc, pred))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
}

func TestProjectArithmetic(t *testing.T) {
	r := testRel(t)
	sc := NewScan(r, "")
	out, err := Collect("out", NewProject(sc, []Projection{
		{Name: "double", Expr: &Arith{Op: OpMul, L: col(t, sc.Schema(), "val"), R: &Lit{relation.Float(2)}}},
		{Name: "idplus", Expr: &Arith{Op: OpAdd, L: col(t, sc.Schema(), "id"), R: &Lit{relation.Int(100)}}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values[0].F() != 20 || out.Rows[0].Values[1].I() != 101 {
		t.Fatalf("row0 = %v", out.Rows[0].Values)
	}
}

func TestArithSymbolicPromotion(t *testing.T) {
	names := polynomial.NewNames()
	p := polynomial.MustParse("0.4*p1", names)
	tup := relation.NewTuple(relation.Poly(p), relation.Float(522))
	e := &Arith{Op: OpMul, L: &ColRef{Idx: 1, Name: "dur"}, R: &ColRef{Idx: 0, Name: "price"}}
	v, err := e.Eval(&tup)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != relation.KindPoly {
		t.Fatalf("kind = %s, want poly", v.Kind())
	}
	want := polynomial.MustParse("208.8*p1", names)
	if !polynomial.AlmostEqual(v.P(), want, 1e-9) {
		t.Fatalf("got %s", v.P().String(names))
	}
	// Division by a symbolic value must fail.
	bad := &Arith{Op: OpDiv, L: &ColRef{Idx: 1}, R: &ColRef{Idx: 0}}
	if _, err := bad.Eval(&tup); err == nil {
		t.Fatal("division by symbolic should error")
	}
	// Constant polynomials demote back to floats.
	tup2 := relation.NewTuple(relation.Poly(polynomial.Const(2)), relation.Float(3))
	got, err := (&Arith{Op: OpMul, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 1}}).Eval(&tup2)
	if err != nil || got.Kind() != relation.KindFloat || got.F() != 6 {
		t.Fatalf("constant demotion: %v %v", got, err)
	}
}

func TestArithErrorsAndNulls(t *testing.T) {
	tup := relation.NewTuple(relation.Str("s"), relation.Null(), relation.Int(0))
	if _, err := (&Arith{Op: OpAdd, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 2}}).Eval(&tup); err == nil {
		t.Fatal("string arithmetic should error")
	}
	v, err := (&Arith{Op: OpAdd, L: &ColRef{Idx: 1}, R: &ColRef{Idx: 2}}).Eval(&tup)
	if err != nil || !v.IsNull() {
		t.Fatal("NULL should propagate")
	}
	if _, err := (&Arith{Op: OpDiv, L: &ColRef{Idx: 2}, R: &ColRef{Idx: 2}}).Eval(&tup); err == nil {
		t.Fatal("division by zero should error")
	}
	neg, err := (&Neg{E: &ColRef{Idx: 2}}).Eval(&tup)
	if err != nil || neg.I() != 0 {
		t.Fatal("neg int")
	}
	if _, err := (&Neg{E: &ColRef{Idx: 0}}).Eval(&tup); err == nil {
		t.Fatal("negating a string should error")
	}
}

func TestLogicShortCircuitAndNot(t *testing.T) {
	boom := &Cmp{Op: OpEq, L: &Lit{relation.Str("x")}, R: &Lit{relation.Int(1)}} // errors if evaluated
	tup := relation.NewTuple()
	v, err := (&Logic{Op: OpAnd, L: &Lit{relation.Bool(false)}, R: boom}).Eval(&tup)
	if err != nil || Truthy(v) {
		t.Fatal("AND should short-circuit false")
	}
	v, err = (&Logic{Op: OpOr, L: &Lit{relation.Bool(true)}, R: boom}).Eval(&tup)
	if err != nil || !Truthy(v) {
		t.Fatal("OR should short-circuit true")
	}
	v, err = (&Logic{Op: OpNot, L: &Lit{relation.Bool(false)}}).Eval(&tup)
	if err != nil || !Truthy(v) {
		t.Fatal("NOT false = true")
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "x%", false},
		{"hello", "%x%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%c", true},
		{"special%case", "special%case", true}, // % in data matches via wildcard
		{"BRAND#12", "BRAND#1_", true},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.pat); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.s, tc.pat, got, tc.want)
		}
	}
	tup := relation.NewTuple(relation.Str("hello"), relation.Int(1))
	v, err := (&Like{E: &ColRef{Idx: 0}, Pattern: "he%"}).Eval(&tup)
	if err != nil || !Truthy(v) {
		t.Fatal("Like eval")
	}
	if _, err := (&Like{E: &ColRef{Idx: 1}, Pattern: "1"}).Eval(&tup); err == nil {
		t.Fatal("LIKE over int should error")
	}
	nv, err := (&Like{E: &ColRef{Idx: 0}, Pattern: "he%", Not: true}).Eval(&tup)
	if err != nil || Truthy(nv) {
		t.Fatal("NOT LIKE")
	}
}

func TestInListAndBetween(t *testing.T) {
	tup := relation.NewTuple(relation.Int(3), relation.Str("b"))
	in := &InList{E: &ColRef{Idx: 0}, Vals: []relation.Value{relation.Int(1), relation.Int(3)}}
	if v, err := in.Eval(&tup); err != nil || !Truthy(v) {
		t.Fatal("IN should match")
	}
	nin := &InList{E: &ColRef{Idx: 1}, Vals: []relation.Value{relation.Str("a")}, Not: true}
	if v, err := nin.Eval(&tup); err != nil || !Truthy(v) {
		t.Fatal("NOT IN should match")
	}
	btw := &Between{E: &ColRef{Idx: 0}, Lo: &Lit{relation.Int(1)}, Hi: &Lit{relation.Int(5)}}
	if v, err := btw.Eval(&tup); err != nil || !Truthy(v) {
		t.Fatal("BETWEEN should match")
	}
	nbtw := &Between{E: &ColRef{Idx: 0}, Lo: &Lit{relation.Int(4)}, Hi: &Lit{relation.Int(5)}, Not: true}
	if v, err := nbtw.Eval(&tup); err != nil || !Truthy(v) {
		t.Fatal("NOT BETWEEN should match")
	}
}

func TestHashJoin(t *testing.T) {
	left := testRel(t)
	rs := relation.NewSchema(
		relation.Column{Name: "grp", Kind: relation.KindString},
		relation.Column{Name: "label", Kind: relation.KindString},
	)
	right := relation.NewRelation("g", rs)
	right.Append(relation.Str("a"), relation.Str("alpha"))
	right.Append(relation.Str("b"), relation.Str("beta"))

	ls, rsc := NewScan(left, ""), NewScan(right, "")
	li, _ := ls.Schema().Index("grp")
	ri, _ := rsc.Schema().Index("g.grp")
	j, err := NewHashJoin(ls, rsc, []int{li}, []int{ri}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // c has no match
		t.Fatalf("join rows = %d, want 4", out.Len())
	}
	if out.Schema.Len() != 5 {
		t.Fatalf("join schema = %d cols", out.Schema.Len())
	}
}

func TestHashJoinAnnotationsMultiply(t *testing.T) {
	names := polynomial.NewNames()
	x, y := names.Var("x"), names.Var("y")
	ls := relation.NewSchema(relation.Column{Name: "k", Kind: relation.KindInt})
	l := relation.NewRelation("l", ls)
	l.Append(relation.Int(1))
	l.Rows[0].Ann = polynomial.VarPoly(x)
	rs := relation.NewSchema(relation.Column{Name: "k", Kind: relation.KindInt})
	r := relation.NewRelation("r", rs)
	r.Append(relation.Int(1))
	r.Rows[0].Ann = polynomial.VarPoly(y)

	j, _ := NewHashJoin(NewScan(l, ""), NewScan(r, ""), []int{0}, []int{0}, nil)
	out, err := Collect("out", j)
	if err != nil {
		t.Fatal(err)
	}
	want := polynomial.MustParse("x*y", names)
	if !polynomial.Equal(out.Rows[0].Ann, want) {
		t.Fatalf("ann = %s", out.Rows[0].Ann.String(names))
	}
}

func TestNestedLoopJoinCrossAndPred(t *testing.T) {
	r := testRel(t)
	cross := NewNestedLoopJoin(NewScan(r, "a"), NewScan(r, "b"))
	out, err := Collect("out", cross)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 25 {
		t.Fatalf("cross rows = %d", out.Len())
	}
	// A theta join is a Filter over the cross product.
	cross = NewNestedLoopJoin(NewScan(r, "a"), NewScan(r, "b"))
	ai, _ := cross.Schema().Index("a.id")
	bi, _ := cross.Schema().Index("b.id")
	theta := NewFilter(cross, &Cmp{Op: OpLt, L: &ColRef{Idx: ai, Name: "a.id"}, R: &ColRef{Idx: bi, Name: "b.id"}})
	out, err = Collect("out", theta)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("theta rows = %d, want 10", out.Len())
	}
}

func TestGroupByConcrete(t *testing.T) {
	r := testRel(t)
	sc := NewScan(r, "")
	gb, err := NewGroupBy(sc, []Expr{col(t, sc.Schema(), "grp")}, []string{"grp"}, []AggSpec{
		{Kind: AggSum, Arg: col(t, sc.Schema(), "val"), Name: "s"},
		{Kind: AggCount, Name: "c"},
		{Kind: AggAvg, Arg: col(t, sc.Schema(), "val"), Name: "a"},
		{Kind: AggMin, Arg: col(t, sc.Schema(), "val"), Name: "lo"},
		{Kind: AggMax, Arg: col(t, sc.Schema(), "val"), Name: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("groups = %d", out.Len())
	}
	byKey := map[string][]relation.Value{}
	for _, row := range out.Rows {
		byKey[row.Values[0].S()] = row.Values
	}
	a := byKey["a"]
	if a[1].F() != 30 || a[2].I() != 2 || a[3].F() != 15 || a[4].F() != 10 || a[5].F() != 20 {
		t.Fatalf("group a aggregates = %v", a)
	}
}

func TestGroupBySymbolicSum(t *testing.T) {
	// SUM over symbolic cells produces provenance polynomials.
	names := polynomial.NewNames()
	s := relation.NewSchema(
		relation.Column{Name: "zip", Kind: relation.KindString},
		relation.Column{Name: "rev", Kind: relation.KindPoly},
	)
	r := relation.NewRelation("t", s)
	r.Append(relation.Str("z1"), relation.Poly(polynomial.MustParse("208.8*p1*m1", names)))
	r.Append(relation.Str("z1"), relation.Poly(polynomial.MustParse("240*p1*m3", names)))
	r.Append(relation.Str("z2"), relation.Poly(polynomial.MustParse("77.9*b1*m1", names)))

	sc := NewScan(r, "")
	gb, err := NewGroupBy(sc, []Expr{col(t, sc.Schema(), "zip")}, []string{"zip"}, []AggSpec{
		{Kind: AggSum, Arg: col(t, sc.Schema(), "rev"), Name: "rev"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	for _, row := range out.Rows {
		if row.Values[0].S() == "z1" {
			want := polynomial.MustParse("208.8*p1*m1 + 240*p1*m3", names)
			if !polynomial.AlmostEqual(row.Values[1].P(), want, 1e-9) {
				t.Fatalf("z1 = %s", row.Values[1].P().String(names))
			}
		}
	}
}

func TestGroupBySymbolicAnnotationCount(t *testing.T) {
	// COUNT with symbolic tuple annotations = Σ annotations.
	names := polynomial.NewNames()
	x := names.Var("x")
	s := relation.NewSchema(relation.Column{Name: "k", Kind: relation.KindInt})
	r := relation.NewRelation("t", s)
	r.Append(relation.Int(1))
	r.Append(relation.Int(1))
	r.Rows[1].Ann = polynomial.VarPoly(x)

	sc := NewScan(r, "")
	gb, err := NewGroupBy(sc, []Expr{col(t, sc.Schema(), "k")}, []string{"k"}, []AggSpec{
		{Kind: AggCount, Name: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	want := polynomial.MustParse("1 + x", names)
	if out.Rows[0].Values[1].Kind() != relation.KindPoly || !polynomial.Equal(out.Rows[0].Values[1].P(), want) {
		t.Fatalf("count = %v", out.Rows[0].Values[1].Format(names))
	}
}

func TestGroupByErrors(t *testing.T) {
	names := polynomial.NewNames()
	s := relation.NewSchema(relation.Column{Name: "p", Kind: relation.KindPoly})
	r := relation.NewRelation("t", s)
	r.Append(relation.Poly(polynomial.MustParse("x", names)))
	sc := NewScan(r, "")
	gb, err := NewGroupBy(sc, []Expr{&ColRef{Idx: 0, Name: "p"}}, []string{"p"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect("out", gb); err == nil {
		t.Fatal("GROUP BY symbolic should error")
	}
	gb2, _ := NewGroupBy(NewScan(r, ""), nil, nil, []AggSpec{{Kind: AggMin, Arg: &ColRef{Idx: 0}, Name: "m"}})
	if _, err := Collect("out", gb2); err == nil {
		t.Fatal("MIN over symbolic should error")
	}
}

func TestGroupByGlobalAggregate(t *testing.T) {
	r := testRel(t)
	sc := NewScan(r, "")
	gb, err := NewGroupBy(sc, nil, nil, []AggSpec{{Kind: AggSum, Arg: col(t, sc.Schema(), "val"), Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows[0].Values[0].F() != 150 {
		t.Fatalf("global sum = %v", out.Rows)
	}
}

func TestSortOrderAndStability(t *testing.T) {
	r := testRel(t)
	sc := NewScan(r, "")
	srt := NewSort(sc, []SortKey{
		{Expr: col(t, sc.Schema(), "grp"), Desc: true},
		{Expr: col(t, sc.Schema(), "val")},
	})
	out, err := Collect("out", srt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].Values[1].S() != "c" || out.Rows[1].Values[2].F() != 30 {
		t.Fatalf("sorted: %v", out)
	}
}

func TestLimit(t *testing.T) {
	r := testRel(t)
	out, err := Collect("out", NewLimit(NewScan(r, ""), 2))
	if err != nil || out.Len() != 2 {
		t.Fatalf("limit: %d, %v", out.Len(), err)
	}
	out, err = Collect("out", NewLimit(NewScan(r, ""), 0))
	if err != nil || out.Len() != 0 {
		t.Fatalf("limit 0: %d, %v", out.Len(), err)
	}
}

func TestAvgSymbolic(t *testing.T) {
	names := polynomial.NewNames()
	s := relation.NewSchema(relation.Column{Name: "v", Kind: relation.KindPoly})
	r := relation.NewRelation("t", s)
	r.Append(relation.Poly(polynomial.MustParse("2*x", names)))
	r.Append(relation.Poly(polynomial.MustParse("4*x", names)))
	sc := NewScan(r, "")
	gb, _ := NewGroupBy(sc, nil, nil, []AggSpec{{Kind: AggAvg, Arg: &ColRef{Idx: 0}, Name: "a"}})
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	want := polynomial.MustParse("3*x", names)
	if !polynomial.AlmostEqual(out.Rows[0].Values[0].P(), want, 1e-9) {
		t.Fatalf("avg = %s", out.Rows[0].Values[0].Format(names))
	}
	if math.IsNaN(out.Rows[0].Values[0].P().Mons[0].Coef) {
		t.Fatal("NaN coefficient")
	}
}

func TestIteratorsReOpenResets(t *testing.T) {
	// Every operator must restart cleanly on re-Open — the contract the
	// nested-loop join relies on for its materialized side and that plan
	// reuse requires.
	r := testRel(t)
	sc := NewScan(r, "")
	srt := NewSort(NewFilter(sc, &Cmp{Op: OpGt, L: col(t, sc.Schema(), "id"), R: &Lit{relation.Int(1)}}),
		[]SortKey{{Expr: col(t, sc.Schema(), "id"), Desc: true}})
	lim := NewLimit(srt, 3)
	for round := 0; round < 3; round++ {
		out, err := Collect("out", lim)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 3 || out.Rows[0].Values[0].I() != 5 {
			t.Fatalf("round %d: %v", round, out.Rows)
		}
	}
}

func TestCaseEngineEval(t *testing.T) {
	tup := relation.NewTuple(relation.Int(7))
	c := &Case{
		Whens: []CaseWhen{
			{When: &Cmp{Op: OpLt, L: &ColRef{Idx: 0}, R: &Lit{relation.Int(5)}}, Then: &Lit{relation.Str("low")}},
			{When: &Cmp{Op: OpLt, L: &ColRef{Idx: 0}, R: &Lit{relation.Int(10)}}, Then: &Lit{relation.Str("mid")}},
		},
		Else: &Lit{relation.Str("high")},
	}
	v, err := c.Eval(&tup)
	if err != nil || v.S() != "mid" {
		t.Fatalf("case = %v, %v", v, err)
	}
	if got := c.String(); got == "" {
		t.Fatal("empty String")
	}
	// No ELSE and no match -> NULL.
	c2 := &Case{Whens: []CaseWhen{{When: &Lit{relation.Bool(false)}, Then: &Lit{relation.Int(1)}}}}
	v, err = c2.Eval(&tup)
	if err != nil || !v.IsNull() {
		t.Fatalf("expected NULL, got %v", v)
	}
	// Error in condition propagates.
	c3 := &Case{Whens: []CaseWhen{{When: &Cmp{Op: OpEq, L: &Lit{relation.Str("x")}, R: &Lit{relation.Int(1)}}, Then: &Lit{relation.Int(1)}}}}
	if _, err := c3.Eval(&tup); err == nil {
		t.Fatal("condition error should propagate")
	}
}

func TestAggregateNullSemantics(t *testing.T) {
	// SQL semantics: aggregates skip NULL arguments; COUNT(*) does not.
	s := relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	r := relation.NewRelation("t", s)
	r.Append(relation.Int(1), relation.Float(10))
	r.Append(relation.Int(1), relation.Null())
	r.Append(relation.Int(1), relation.Float(20))

	sc := NewScan(r, "")
	gb, err := NewGroupBy(sc, []Expr{col(t, sc.Schema(), "k")}, []string{"k"}, []AggSpec{
		{Kind: AggCount, Name: "star"},
		{Kind: AggCount, Arg: col(t, sc.Schema(), "v"), Name: "nonnull"},
		{Kind: AggSum, Arg: col(t, sc.Schema(), "v"), Name: "sum"},
		{Kind: AggAvg, Arg: col(t, sc.Schema(), "v"), Name: "avg"},
		{Kind: AggMin, Arg: col(t, sc.Schema(), "v"), Name: "min"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	row := out.Rows[0]
	if row.Values[1].I() != 3 {
		t.Fatalf("COUNT(*) = %v, want 3", row.Values[1])
	}
	if row.Values[2].I() != 2 {
		t.Fatalf("COUNT(v) = %v, want 2", row.Values[2])
	}
	if row.Values[3].F() != 30 {
		t.Fatalf("SUM = %v", row.Values[3])
	}
	if row.Values[4].F() != 15 {
		t.Fatalf("AVG = %v (NULLs must not count)", row.Values[4])
	}
	if row.Values[5].F() != 10 {
		t.Fatalf("MIN = %v", row.Values[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "v", Kind: relation.KindFloat})
	r := relation.NewRelation("t", s)
	sc := NewScan(r, "")
	// Global aggregate over empty input: zero groups (grouped semantics) —
	// matching the engine's uniform model; SQL's scalar-aggregate edge case
	// (one row of NULLs) is handled at the planner level if ever needed.
	gb, err := NewGroupBy(sc, nil, nil, []AggSpec{{Kind: AggSum, Arg: &ColRef{Idx: 0}, Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("rows = %d", out.Len())
	}
}

func TestAggregateAllNullGroup(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	r := relation.NewRelation("t", s)
	r.Append(relation.Int(1), relation.Null())
	sc := NewScan(r, "")
	gb, err := NewGroupBy(sc, []Expr{col(t, sc.Schema(), "k")}, []string{"k"}, []AggSpec{
		{Kind: AggSum, Arg: col(t, sc.Schema(), "v"), Name: "s"},
		{Kind: AggMin, Arg: col(t, sc.Schema(), "v"), Name: "m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect("out", gb)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rows[0].Values[1].IsNull() || !out.Rows[0].Values[2].IsNull() {
		t.Fatalf("all-NULL group should aggregate to NULL: %v", out.Rows[0].Values)
	}
}
