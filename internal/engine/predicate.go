package engine

import (
	"strings"

	"github.com/cobra-prov/cobra/internal/relation"
)

// predicate is a WHERE or HAVING condition compiled once, at plan time,
// into a tree of closures over a row. It reports Truthy(e.Eval(row)) for
// the Expr e it was compiled from, with the same error raised by the same
// conjunct, and never reports true with an error.
//
// A column compared with literals (Cmp, BETWEEN, IN, LIKE) reads its cell
// directly and runs the node's own last step of Eval (Value.Compare, Equal
// or the LIKE match) on it and the literals, with no interface call: a
// string against a string literal is one strings.Compare. AND, OR and NOT
// short-circuit over the closures of their operands. Any other operand and
// a column past the row go through Expr.Eval, as does a NULL cell unless
// it is compared with the column on the left. That fallback reuses one
// tuple, so a predicate is no more safe for concurrent use than the
// operator holding it.
type predicate func(row []relation.Value) (bool, error)

// compilePredicate compiles e.
func compilePredicate(e Expr) predicate {
	if x, ok := e.(*Logic); ok {
		if x.Op == OpNot {
			l := compilePredicate(x.L)
			return func(row []relation.Value) (bool, error) {
				pass, err := l(row)
				return !pass && err == nil, err
			}
		}
		// A chain of one connective — WHERE's conjuncts — is one loop over
		// its operands, left to right. An operand never reports true with
		// an error, so pass == or settles the result, and an error ends the
		// walk either way.
		or := x.Op == OpOr
		ops := compileChain(x, nil)
		return func(row []relation.Value) (bool, error) {
			for _, op := range ops {
				if pass, err := op(row); pass == or || err != nil {
					return pass, err
				}
			}
			return !or, nil
		}
	}
	slow := evalPredicate(e)
	switch x := e.(type) {
	case *Cmp:
		// A column against a literal is the hot case, so it gets a closure
		// of its own, and two strings skip Compare's dispatch on kinds.
		if idx, lit, ok := colAndLit(x.L, x.R); ok {
			return func(row []relation.Value) (bool, error) {
				if uint(idx) >= uint(len(row)) {
					return slow(row)
				}
				if v := row[idx]; v.Kind() == relation.KindString && lit.Kind() == relation.KindString {
					return cmpHolds[x.Op][strings.Compare(v.S(), lit.S())+1], nil
				}
				res, err := x.test(row[idx], lit)
				return err == nil && Truthy(res), err
			}
		}
		if idx, lit, ok := colAndLit(x.R, x.L); ok {
			return onCell(idx, slow, func(v relation.Value) (relation.Value, error) { return x.test(lit, v) })
		}
	case *Between:
		idx, lo, ok := colAndLit(x.E, x.Lo)
		if _, hi, hok := colAndLit(x.E, x.Hi); ok && hok {
			return onCell(idx, slow, func(v relation.Value) (relation.Value, error) { return x.test(v, lo, hi) })
		}
	case *InList:
		if col, ok := x.E.(*ColRef); ok {
			return onCell(col.Idx, slow, x.test)
		}
	case *Like:
		if col, ok := x.E.(*ColRef); ok {
			return onCell(col.Idx, slow, x.test)
		}
	}
	return slow
}

// compileChain appends to ops the compiled operands of the chain of x's
// connective rooted at x, in evaluation order.
func compileChain(x *Logic, ops []predicate) []predicate {
	for _, e := range [2]Expr{x.L, x.R} {
		if y, ok := e.(*Logic); ok && y.Op == x.Op {
			ops = compileChain(y, ops)
		} else {
			ops = append(ops, compilePredicate(e))
		}
	}
	return ops
}

// onCell compiles a node over column idx and literals: test is the node's
// last step of Eval, bound to the literals. A NULL cell, for which Eval
// may stop before that step, and a column past the row go through slow.
func onCell(idx int, slow predicate, test func(relation.Value) (relation.Value, error)) predicate {
	return func(row []relation.Value) (bool, error) {
		if uint(idx) >= uint(len(row)) || row[idx].IsNull() {
			return slow(row)
		}
		v, err := test(row[idx])
		return err == nil && Truthy(v), err
	}
}

// evalPredicate is the fallback: Truthy(e.Eval) over a tuple the closure
// owns, so that the tuple Eval takes by address escapes once, not per row.
func evalPredicate(e Expr) predicate {
	t := new(relation.Tuple)
	return func(row []relation.Value) (bool, error) {
		t.Values = row
		v, err := e.Eval(t)
		return err == nil && Truthy(v), err
	}
}

// colAndLit reports whether col is a column and lit a literal other than
// NULL, and returns the column's index and the literal's value.
func colAndLit(col, lit Expr) (int, relation.Value, bool) {
	c, ok := col.(*ColRef)
	l, lok := lit.(*Lit)
	if !ok || !lok || l.Val.IsNull() {
		return 0, relation.Value{}, false
	}
	return c.Idx, l.Val, true
}
