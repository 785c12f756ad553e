package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an unbound SQL expression.
type Expr interface {
	String() string
}

// Ident is a (possibly qualified) column reference.
type Ident struct {
	Table string
	Name  string
}

func (e *Ident) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// NumberLit is a numeric literal; integral literals keep their int64 form.
type NumberLit struct {
	IsInt bool
	I     int64
	F     float64
}

func (e *NumberLit) String() string {
	if e.IsInt {
		return strconv.FormatInt(e.I, 10)
	}
	return strconv.FormatFloat(e.F, 'g', -1, 64)
}

// StringLit is a string (or date) literal.
type StringLit struct {
	Val string
}

func (e *StringLit) String() string { return "'" + e.Val + "'" }

// BoolLit is TRUE/FALSE.
type BoolLit struct {
	Val bool
}

func (e *BoolLit) String() string { return strings.ToUpper(strconv.FormatBool(e.Val)) }

// NullLit is NULL.
type NullLit struct{}

func (e *NullLit) String() string { return "NULL" }

// Binary is a binary operation; Op one of + - * / = <> < <= > >= AND OR.
type Binary struct {
	Op   string
	L, R Expr
}

func (e *Binary) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Unary is - or NOT.
type Unary struct {
	Op string
	E  Expr
}

func (e *Unary) String() string { return fmt.Sprintf("(%s %s)", e.Op, e.E) }

// Call is an aggregate call. Star marks COUNT(*).
type Call struct {
	Func string // upper-case: SUM, COUNT, AVG, MIN, MAX
	Arg  Expr   // nil when Star
	Star bool
}

func (e *Call) String() string {
	if e.Star {
		return e.Func + "(*)"
	}
	return fmt.Sprintf("%s(%s)", e.Func, e.Arg)
}

// InExpr is "e [NOT] IN (literals...)".
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

func (e *InExpr) String() string {
	var parts []string
	for _, x := range e.List {
		parts = append(parts, x.String())
	}
	not := ""
	if e.Not {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s IN (%s))", e.E, not, strings.Join(parts, ", "))
}

// BetweenExpr is "e [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s BETWEEN %s AND %s)", e.E, not, e.Lo, e.Hi)
}

// LikeExpr is "e [NOT] LIKE 'pattern'".
type LikeExpr struct {
	E       Expr
	Pattern string
	Not     bool
}

func (e *LikeExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s LIKE '%s')", e.E, not, e.Pattern)
}

// CaseBranch is one WHEN/THEN pair of a CaseExpr.
type CaseBranch struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is the searched CASE expression.
type CaseExpr struct {
	Whens []CaseBranch
	Else  Expr // nil means ELSE NULL
}

func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if e.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", e.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// SelectItem is one output column.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// name is the item's output column name: its alias, or its text.
func (it SelectItem) name() string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

// TableRef is one FROM entry.
type TableRef struct {
	Name  string
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Star    bool
	Items   []SelectItem
	From    []TableRef
	Where   Expr // JOIN ... ON conditions are folded in as conjuncts
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// String reassembles an approximation of the statement (diagnostics only).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Star {
		sb.WriteString("*")
	}
	for i, it := range s.Items {
		if i > 0 || s.Star {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tr.Name)
		if tr.Alias != "" && tr.Alias != tr.Name {
			sb.WriteString(" ")
			sb.WriteString(tr.Alias)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// walkExpr calls fn on e and then on e's sub-expressions, depth first and
// left to right. fn returning false skips the sub-expressions of the node
// it was called on.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *Unary:
		walkExpr(x.E, fn)
	case *Call:
		walkExpr(x.Arg, fn)
	case *InExpr:
		walkExpr(x.E, fn)
		for _, v := range x.List {
			walkExpr(v, fn)
		}
	case *BetweenExpr:
		walkExpr(x.E, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *LikeExpr:
		walkExpr(x.E, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Result, fn)
		}
		walkExpr(x.Else, fn)
	}
}
