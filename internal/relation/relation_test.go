package relation

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

func TestValueConstructorsAndPredicates(t *testing.T) {
	if !Null().IsNull() || Int(1).IsNull() {
		t.Fatal("IsNull broken")
	}
	for _, v := range []Value{Int(3), Float(2.5)} {
		if !v.IsNumeric() {
			t.Fatalf("%s should be numeric", v)
		}
	}
	for _, v := range []Value{Str("x"), Bool(true), Null()} {
		if v.IsNumeric() {
			t.Fatalf("%s should not be numeric", v)
		}
	}
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Fatal("Int AsFloat")
	}
	names := polynomial.NewNames()
	sym := Poly(polynomial.MustParse("2*x", names))
	if sym.IsNull() || !sym.IsNumeric() {
		t.Fatal("poly kind predicates")
	}
	if _, ok := sym.AsFloat(); ok {
		t.Fatal("non-constant poly should not convert to float")
	}
	if f, ok := Poly(polynomial.Const(4)).AsFloat(); !ok || f != 4 {
		t.Fatal("constant poly should convert")
	}
	if p, ok := Int(3).AsPoly(); !ok {
		t.Fatal("int lifts to poly")
	} else if c, _ := p.IsConstant(); c != 3 {
		t.Fatal("lift value wrong")
	}
	if _, ok := Str("s").AsPoly(); ok {
		t.Fatal("string must not lift to poly")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Float(2), 0},
		{Float(3.5), Int(3), 1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null(), Int(5), -1},
		{Int(5), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, tc := range cases {
		got, err := tc.a.Compare(tc.b)
		if err != nil || got != tc.want {
			t.Errorf("Compare(%s, %s) = %d, %v; want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
	if _, err := Str("a").Compare(Int(1)); err == nil {
		t.Error("string vs int should error")
	}
	names := polynomial.NewNames()
	sym := Poly(polynomial.MustParse("x", names))
	if _, err := sym.Compare(Int(1)); err == nil {
		t.Error("symbolic compare should error")
	}
	if c, err := Poly(polynomial.Const(2)).Compare(Int(2)); err != nil || c != 0 {
		t.Error("constant poly compares numerically")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(2).Equal(Float(2)) {
		t.Fatal("2 == 2.0")
	}
	names := polynomial.NewNames()
	p := polynomial.MustParse("x+1", names)
	if !Poly(p).Equal(Poly(p.Clone())) {
		t.Fatal("equal polys")
	}
	if Poly(p).Equal(Str("x")) {
		t.Fatal("poly != string")
	}
}

func TestSchemaIndex(t *testing.T) {
	s := NewSchema(
		Column{Table: "c", Name: "id", Kind: KindInt},
		Column{Table: "c", Name: "zip", Kind: KindString},
		Column{Table: "o", Name: "id", Kind: KindInt},
	)
	if i, err := s.Index("zip"); err != nil || i != 1 {
		t.Fatalf("Index(zip) = %d, %v", i, err)
	}
	if _, err := s.Index("id"); err == nil {
		t.Fatal("unqualified ambiguous lookup should error")
	}
	if i, err := s.Index("o.id"); err != nil || i != 2 {
		t.Fatalf("Index(o.id) = %d, %v", i, err)
	}
	if _, err := s.Index("nope"); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := s.Index("x.zip"); err == nil {
		t.Fatal("wrong qualifier should error")
	}
}

func TestSchemaQualifierAndConcat(t *testing.T) {
	s := NewSchema(Column{Name: "a"}, Column{Name: "b"})
	q := s.WithQualifier("t")
	if q.Cols[0].Table != "t" || s.Cols[0].Table != "" {
		t.Fatal("WithQualifier must copy")
	}
	j := q.Concat(NewSchema(Column{Table: "u", Name: "c"}))
	if j.Len() != 3 || j.Cols[2].Qualified() != "u.c" {
		t.Fatalf("Concat: %+v", j.Cols)
	}
}

func TestRelationAppendCloneString(t *testing.T) {
	s := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "name", Kind: KindString})
	r := NewRelation("t", s)
	r.Append(Int(1), Str("a"))
	r.Append(Int(2), Str("b"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	c := r.Clone()
	c.Rows[0].Values[0] = Int(99)
	if r.Rows[0].Values[0].I() == 99 {
		t.Fatal("Clone shares row storage")
	}
	if r.Rows[0].Ann.NumMonomials() != 1 {
		t.Fatal("fresh tuples must have annotation 1")
	}
	if got := r.String(); got == "" {
		t.Fatal("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch should panic")
		}
	}()
	r.Append(Int(3))
}
