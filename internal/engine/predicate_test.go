package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// predWidth is the width of a generated row; a column index drawn up to
// it is sometimes one past the row.
const predWidth = 4

// predCell draws a cell of every kind a row or a literal may hold, biased
// towards the values where kinds meet: small numbers as INT and FLOAT, the
// two zeros, NaN, 2^53 and 2^53+1, "", BOOL and constant and non-constant
// polynomials.
func predCell(b *fuzzBytes, x polynomial.Var) relation.Value {
	small := int64(b.next()%5) - 2
	switch b.next() % 13 {
	case 0:
		return relation.Null()
	case 1:
		return relation.Int(small)
	case 2:
		return relation.Int(1<<53 + 1)
	case 3:
		return relation.Float(float64(small) / 2)
	case 4:
		return relation.Float(math.Copysign(0, -1))
	case 5:
		return relation.Float(math.NaN())
	case 6:
		return relation.Float(1 << 53)
	case 7:
		return relation.Str("")
	case 8:
		return relation.Str([]string{"a", "ab", "b%", "b", "1"}[small+2])
	case 9:
		return relation.Bool(small > 0)
	case 10:
		return relation.Poly(polynomial.Const(float64(small)))
	case 11:
		return relation.Poly(polynomial.Scale(polynomial.VarPoly(x), float64(small)))
	}
	return relation.Int(small * 1000)
}

// predExpr draws a predicate tree at most depth connectives deep: Cmp with
// the column on either side or on both, BETWEEN, IN, LIKE, a comparison
// with an Arith operand, a bare column, and AND, OR and NOT.
func predExpr(b *fuzzBytes, x polynomial.Var, depth int) Expr {
	col := func() Expr {
		i := int(b.next() % (predWidth + 1))
		return &ColRef{Idx: i, Name: fmt.Sprintf("c%d", i)}
	}
	lit := func() Expr { return &Lit{Val: predCell(b, x)} }
	op := func() CmpOp { return CmpOp(b.next() % 6) }
	not := func() bool { return b.next()%2 == 1 }
	switch k := b.next() % 10; {
	case k == 0:
		return &Cmp{Op: op(), L: col(), R: lit()}
	case k == 1:
		return &Cmp{Op: op(), L: lit(), R: col()}
	case k == 2:
		return &Cmp{Op: op(), L: col(), R: col()}
	case k == 3:
		return &Between{E: col(), Lo: lit(), Hi: lit(), Not: not()}
	case k == 4:
		vals := make([]relation.Value, 1+b.next()%3)
		for i := range vals {
			vals[i] = predCell(b, x)
		}
		return &InList{E: col(), Vals: vals, Not: not()}
	case k == 5:
		return &Like{E: col(), Pattern: []string{"", "%", "a%", "_", "b_", "%b%"}[b.next()%6], Not: not()}
	case k == 6:
		return &Cmp{Op: op(), L: &Arith{Op: ArithOp(b.next() % 4), L: col(), R: lit()}, R: lit()}
	case k == 7:
		return col()
	case k == 8 && depth > 0:
		return &Logic{Op: LogicOp(b.next() % 2), L: predExpr(b, x, depth-1), R: predExpr(b, x, depth-1)}
	case k == 9 && depth > 0:
		return &Logic{Op: OpNot, L: predExpr(b, x, depth-1)}
	}
	return lit()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzPredicate checks the compiled predicate against the tree-walking
// Eval it replaces: on every generated row it admits the row exactly when
// Truthy(Eval) does, and fails with the identical error text. Besides the
// checked-in corpus, it is seeded with 64 random inputs, each long enough
// for a tree and its four rows.
func FuzzPredicate(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 80)
		r.Read(seed)
		f.Add(seed)
	}
	x := polynomial.NewNames().Var("x")
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		e := predExpr(&b, x, 3)
		test := compilePredicate(e)
		for r := 0; r < 4; r++ {
			row := make([]relation.Value, predWidth)
			for i := range row {
				row[i] = predCell(&b, x)
			}
			tup := relation.Tuple{Values: row}
			v, err := e.Eval(&tup)
			pass, perr := test(row)
			if pass != Truthy(v) || errText(perr) != errText(err) {
				t.Fatalf("%s over %v: compiled %v, %s; Eval %v, %s", e, row, pass, errText(perr), v, errText(err))
			}
		}
	})
}

// TestScanPredicateAllocations pins that a Scan testing a compiled
// predicate allocates nothing per row: draining 10 000 rows allocates
// exactly what draining 100 does. The predicate takes every compiled path
// — a column against a string and against a number, IN, LIKE, BETWEEN,
// AND, OR and NOT — and the Eval fallback, for an Arith operand.
func TestScanPredicateAllocations(t *testing.T) {
	id, grp, val := &ColRef{Idx: 0, Name: "id"}, &ColRef{Idx: 1, Name: "grp"}, &ColRef{Idx: 2, Name: "val"}
	pred := &Logic{Op: OpAnd,
		L: &Logic{Op: OpAnd,
			L: &Logic{Op: OpAnd,
				L: &Cmp{Op: OpGe, L: val, R: &Lit{relation.Int(10)}},
				R: &Cmp{Op: OpLt, L: grp, R: &Lit{relation.Str("c")}}},
			R: &InList{E: grp, Vals: []relation.Value{relation.Str("a"), relation.Str("b")}}},
		R: &Logic{Op: OpOr,
			L: &Logic{Op: OpNot, L: &Like{E: grp, Pattern: "b%"}},
			R: &Logic{Op: OpOr,
				L: &Cmp{Op: OpLt, L: &Arith{Op: OpMul, L: id, R: &Lit{relation.Int(2)}}, R: &Lit{relation.Int(15_000)}},
				R: &Between{E: val, Lo: &Lit{relation.Float(20)}, Hi: &Lit{relation.Float(30)}}}}}
	drain := func(n int) (float64, int) {
		rel := relation.NewRelation("t", testRel(t).Schema)
		for i := 0; i < n; i++ {
			rel.Append(relation.Int(int64(i)), relation.Str([]string{"a", "b", "c"}[i%3]), relation.Float(float64(i%50)))
		}
		sc := NewScan(rel, "")
		sc.Where(pred)
		rows := 0
		allocs := testing.AllocsPerRun(5, func() {
			rows = 0
			if err := sc.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := sc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rows++
			}
			sc.Close()
		})
		return allocs, rows
	}
	small, smallRows := drain(100)
	large, largeRows := drain(10_000)
	if smallRows == 0 || largeRows <= smallRows || largeRows == 10_000 {
		t.Fatalf("the predicate admitted %d of 100 and %d of 10 000 rows: not a filter", smallRows, largeRows)
	}
	if small != large {
		t.Fatalf("draining 100 rows allocates %v, 10 000 rows %v", small, large)
	}
}
