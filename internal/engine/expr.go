// Package engine implements a Volcano-style, provenance-aware relational
// query engine. Tuples carry N[X] annotations that propagate through
// selection, projection and join (Green et al.); numeric cells may be
// symbolic (polynomial-valued), and aggregation combines annotations and
// values in the aggregation semimodule of Amsterdamer et al., producing the
// provenance polynomials COBRA compresses.
//
// There is one executor: the pull loop of Stream, which Collect
// materializes. Its contracts, beyond the Iterator's row-validity rule:
//
//   - Keys (keyTable): hash joins and GROUP BY hash the key cells by
//     kind and settle every tie by comparing cells; equality is
//     Value.Compare == 0, so INT and FLOAT keys meet (as float64) and two
//     INT keys are compared exactly. NULL never joins and is a group of its
//     own; a symbolic key cell is an error.
//   - Order: a hash join emits probe rows in input order, each with its
//     matches in build-input order; groups and distinct rows come in
//     first-seen order.
//   - Width: a HashJoin stores and emits only the columns its constructor
//     is told are still read above it.
//   - Sums: a symbolic aggregate merges monomials as rows arrive
//     (polynomial.Accumulator); a merged coefficient is the left-to-right
//     float64 sum of its contributions in input-row order, the group's
//     concrete contributions added last.
package engine

import (
	"fmt"
	"strings"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// Expr is a bound (column indices resolved) scalar expression.
type Expr interface {
	Eval(t *relation.Tuple) (relation.Value, error)
	String() string
}

// ColRef reads column Idx; Name is kept for display.
type ColRef struct {
	Idx  int
	Name string
}

func (c *ColRef) Eval(t *relation.Tuple) (relation.Value, error) {
	if c.Idx < 0 || c.Idx >= len(t.Values) {
		return relation.Null(), fmt.Errorf("engine: column index %d out of range", c.Idx)
	}
	return t.Values[c.Idx], nil
}

func (c *ColRef) String() string { return c.Name }

// Lit is a literal value.
type Lit struct {
	Val relation.Value
}

func (l *Lit) Eval(*relation.Tuple) (relation.Value, error) { return l.Val, nil }
func (l *Lit) String() string                               { return l.Val.String() }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith is a binary arithmetic expression with numeric/symbolic promotion:
// int op int stays integral (except division), floats promote, and symbolic
// operands promote the computation into the polynomial semiring. Division is
// defined only by a concrete (or constant-symbolic) nonzero divisor.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a *Arith) Eval(t *relation.Tuple) (relation.Value, error) {
	l, err := a.L.Eval(t)
	if err != nil {
		return relation.Null(), err
	}
	l, r, err := a.right(l, t)
	if err != nil || l.IsNull() {
		return relation.Null(), err
	}
	return a.apply(l, r)
}

// right evaluates the right operand beside the left one's value l. A NULL
// on either side makes both come back NULL; operands that are not numeric
// are an error.
func (a *Arith) right(l relation.Value, t *relation.Tuple) (_, r relation.Value, err error) {
	if r, err = a.R.Eval(t); err != nil || l.IsNull() || r.IsNull() {
		return relation.Null(), relation.Null(), err
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return relation.Null(), relation.Null(), fmt.Errorf("engine: %s requires numeric operands, got %s and %s", a.Op, l.Kind(), r.Kind())
	}
	return l, r, nil
}

// apply computes l Op r for numeric operands.
func (a *Arith) apply(l, r relation.Value) (relation.Value, error) {
	// Symbolic path. A concrete operand is folded in directly (Scale for
	// * and /, a constant polynomial only where unavoidable) so the per-row
	// hot path does not allocate a one-monomial polynomial just to wrap a
	// number; the results are bit-identical to lifting both sides.
	if l.Kind() == relation.KindPoly || r.Kind() == relation.KindPoly {
		switch a.Op {
		case OpMul:
			if l.Kind() != relation.KindPoly {
				lf, _ := l.AsFloat()
				return simplify(polynomial.Scale(r.P(), lf)), nil
			}
			if r.Kind() != relation.KindPoly {
				rf, _ := r.AsFloat()
				return simplify(polynomial.Scale(l.P(), rf)), nil
			}
			return simplify(polynomial.Mul(l.P(), r.P())), nil
		case OpDiv:
			if r.Kind() != relation.KindPoly {
				rf, _ := r.AsFloat()
				if rf == 0 {
					return relation.Null(), fmt.Errorf("engine: division by zero")
				}
				return simplify(polynomial.Scale(l.P(), 1/rf)), nil
			}
			c, ok := r.P().IsConstant()
			if !ok {
				return relation.Null(), fmt.Errorf("engine: division by a symbolic value")
			}
			if c == 0 {
				return relation.Null(), fmt.Errorf("engine: division by zero")
			}
			if l.Kind() != relation.KindPoly {
				lf, _ := l.AsFloat()
				return relation.Float(lf * (1 / c)), nil
			}
			return simplify(polynomial.Scale(l.P(), 1/c)), nil
		}
		lp, _ := l.AsPoly()
		rp, _ := r.AsPoly()
		switch a.Op {
		case OpAdd:
			return simplify(polynomial.Add(lp, rp)), nil
		case OpSub:
			return simplify(polynomial.Sub(lp, rp)), nil
		}
	}
	// Integer path.
	if l.Kind() == relation.KindInt && r.Kind() == relation.KindInt && a.Op != OpDiv {
		switch a.Op {
		case OpAdd:
			return relation.Int(l.I() + r.I()), nil
		case OpSub:
			return relation.Int(l.I() - r.I()), nil
		case OpMul:
			return relation.Int(l.I() * r.I()), nil
		}
	}
	lf, _ := l.AsFloat()
	rf, _ := r.AsFloat()
	switch a.Op {
	case OpAdd:
		return relation.Float(lf + rf), nil
	case OpSub:
		return relation.Float(lf - rf), nil
	case OpMul:
		return relation.Float(lf * rf), nil
	default:
		if rf == 0 {
			return relation.Null(), fmt.Errorf("engine: division by zero")
		}
		return relation.Float(lf / rf), nil
	}
}

// simplify demotes constant polynomials back to floats so concrete
// computations stay concrete.
func simplify(p polynomial.Polynomial) relation.Value {
	if c, ok := p.IsConstant(); ok {
		return relation.Float(c)
	}
	return relation.Poly(p)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Neg is unary minus.
type Neg struct {
	E Expr
}

func (n *Neg) Eval(t *relation.Tuple) (relation.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil || v.IsNull() {
		return relation.Null(), err
	}
	switch v.Kind() {
	case relation.KindInt:
		return relation.Int(-v.I()), nil
	case relation.KindFloat:
		return relation.Float(-v.F()), nil
	case relation.KindPoly:
		return relation.Poly(polynomial.Neg(v.P())), nil
	default:
		return relation.Null(), fmt.Errorf("engine: cannot negate %s", v.Kind())
	}
}

func (n *Neg) String() string { return "-" + n.E.String() }

// CmpOp enumerates comparison operators.
type CmpOp uint8

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// Cmp compares two values. Comparisons involving NULL yield NULL (which
// filters treat as false).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c *Cmp) Eval(t *relation.Tuple) (relation.Value, error) {
	l, err := c.L.Eval(t)
	if err != nil {
		return relation.Null(), err
	}
	r, err := c.R.Eval(t)
	if err != nil {
		return relation.Null(), err
	}
	return c.test(l, r)
}

// test is Eval's last step, on the operands' values; a compiled predicate
// runs it on a cell and a literal.
func (c *Cmp) test(l, r relation.Value) (relation.Value, error) {
	if l.IsNull() || r.IsNull() {
		return relation.Null(), nil
	}
	cmp, err := l.Compare(r)
	if err != nil {
		return relation.Null(), err
	}
	return relation.Bool(cmpHolds[c.Op][cmp+1]), nil
}

// cmpHolds[op][c+1] reports whether l op r holds when l.Compare(r) is c.
var cmpHolds = [...][3]bool{
	OpEq: {false, true, false},
	OpNe: {true, false, true},
	OpLt: {true, false, false},
	OpLe: {true, true, false},
	OpGt: {false, false, true},
	OpGe: {false, true, true},
}

func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// LogicOp enumerates boolean connectives.
type LogicOp uint8

const (
	OpAnd LogicOp = iota
	OpOr
	OpNot
)

// Logic combines boolean expressions; R is nil for OpNot. NULL operands are
// treated as false (simplified two-valued WHERE semantics).
type Logic struct {
	Op   LogicOp
	L, R Expr
}

func (l *Logic) Eval(t *relation.Tuple) (relation.Value, error) {
	lv, err := l.L.Eval(t)
	if err != nil {
		return relation.Null(), err
	}
	lb := Truthy(lv)
	switch l.Op {
	case OpNot:
		return relation.Bool(!lb), nil
	case OpAnd:
		if !lb {
			return relation.Bool(false), nil
		}
	case OpOr:
		if lb {
			return relation.Bool(true), nil
		}
	}
	rv, err := l.R.Eval(t)
	if err != nil {
		return relation.Null(), err
	}
	return relation.Bool(Truthy(rv)), nil
}

func (l *Logic) String() string {
	switch l.Op {
	case OpNot:
		return "NOT " + l.L.String()
	case OpAnd:
		return fmt.Sprintf("(%s AND %s)", l.L, l.R)
	default:
		return fmt.Sprintf("(%s OR %s)", l.L, l.R)
	}
}

// Like matches a string against a SQL LIKE pattern (% = any run, _ = any
// single byte).
type Like struct {
	E       Expr
	Pattern string
	Not     bool
}

func (l *Like) Eval(t *relation.Tuple) (relation.Value, error) {
	v, err := l.E.Eval(t)
	if err != nil {
		return relation.Null(), err
	}
	return l.test(v)
}

// test is Eval's last step, on the operand's value.
func (l *Like) test(v relation.Value) (relation.Value, error) {
	if v.IsNull() {
		return relation.Null(), nil
	}
	if v.Kind() != relation.KindString {
		return relation.Null(), fmt.Errorf("engine: LIKE requires a string, got %s", v.Kind())
	}
	m := likeMatch(v.S(), l.Pattern)
	if l.Not {
		m = !m
	}
	return relation.Bool(m), nil
}

func (l *Like) String() string {
	op := "LIKE"
	if l.Not {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s %q)", l.E, op, l.Pattern)
}

// likeMatch implements %/_ glob matching with linear backtracking.
func likeMatch(s, pat string) bool {
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		if pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]) {
			si++
			pi++
			continue
		}
		if pi < len(pat) && pat[pi] == '%' {
			star, starSi = pi, si
			pi++
			continue
		}
		if star >= 0 {
			pi = star + 1
			starSi++
			si = starSi
			continue
		}
		return false
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// InList tests membership in a literal list.
type InList struct {
	E    Expr
	Vals []relation.Value
	Not  bool
}

func (in *InList) Eval(t *relation.Tuple) (relation.Value, error) {
	v, err := in.E.Eval(t)
	if err != nil {
		return relation.Null(), err
	}
	return in.test(v)
}

// test is Eval's last step, on the operand's value.
func (in *InList) test(v relation.Value) (relation.Value, error) {
	if v.IsNull() {
		return relation.Null(), nil
	}
	found := false
	for _, x := range in.Vals {
		if v.Equal(x) {
			found = true
			break
		}
	}
	if in.Not {
		found = !found
	}
	return relation.Bool(found), nil
}

func (in *InList) String() string {
	var parts []string
	for _, v := range in.Vals {
		parts = append(parts, v.String())
	}
	op := "IN"
	if in.Not {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", in.E, op, strings.Join(parts, ", "))
}

// Between tests Lo <= E <= Hi.
type Between struct {
	E, Lo, Hi Expr
	Not       bool
}

func (b *Between) Eval(t *relation.Tuple) (relation.Value, error) {
	v, err := b.E.Eval(t)
	if err != nil || v.IsNull() {
		return relation.Null(), err
	}
	lo, err := b.Lo.Eval(t)
	if err != nil || lo.IsNull() {
		return relation.Null(), err
	}
	hi, err := b.Hi.Eval(t)
	if err != nil || hi.IsNull() {
		return relation.Null(), err
	}
	return b.test(v, lo, hi)
}

// test is Eval's last step, on the operands' values, none of them NULL.
func (b *Between) test(v, lo, hi relation.Value) (relation.Value, error) {
	c1, err := v.Compare(lo)
	if err != nil {
		return relation.Null(), err
	}
	c2, err := v.Compare(hi)
	if err != nil {
		return relation.Null(), err
	}
	res := c1 >= 0 && c2 <= 0
	if b.Not {
		res = !res
	}
	return relation.Bool(res), nil
}

func (b *Between) String() string {
	op := "BETWEEN"
	if b.Not {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("(%s %s %s AND %s)", b.E, op, b.Lo, b.Hi)
}

// Truthy reports whether an evaluated condition admits the tuple.
func Truthy(v relation.Value) bool { return v.B() }
