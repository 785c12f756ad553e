package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Describe renders the operator tree of a plan, EXPLAIN-style. It is a
// debugging and teaching aid: the demo's "look under the hood" mode uses it
// to show how a query was planned (pushed filters, join order, hash keys).
func Describe(it Iterator) string {
	var sb strings.Builder
	describe(&sb, it, 0)
	return sb.String()
}

// describe appends one line per operator, writing through the builder
// directly rather than fmt: EXPLAIN is cold, but the engine package is
// heap-escape budgeted and each format verb whose operand escapes would
// count as a site against it.
func describe(sb *strings.Builder, it Iterator, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	switch op := it.(type) {
	case *Scan:
		sb.WriteString("Scan ")
		sb.WriteString(op.rel.Name)
		sb.WriteString(" (")
		sb.WriteString(strconv.Itoa(op.rel.Len()))
		sb.WriteString(" rows)")
		if op.where != nil {
			sb.WriteString(" where ")
			writeConjuncts(sb, op.where)
		}
		sb.WriteByte('\n')
	case *Filter:
		sb.WriteString("Filter ")
		writeConjuncts(sb, op.pred)
		sb.WriteByte('\n')
		describe(sb, op.in, depth+1)
	case *Project:
		sb.WriteString("Project [")
		for i, p := range op.projs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(p.Name)
		}
		sb.WriteString("]\n")
		describe(sb, op.in, depth+1)
	case *HashJoin:
		sb.WriteString("HashJoin on ")
		for i := range op.leftKeys {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(op.left.Schema().Cols[op.leftKeys[i]].Qualified())
			sb.WriteString(" = ")
			sb.WriteString(op.right.Schema().Cols[op.rightKeys[i]].Qualified())
		}
		sb.WriteString(" keep [")
		for i, c := range op.schema.Cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Qualified())
		}
		sb.WriteString("]\n")
		describe(sb, op.left, depth+1)
		describe(sb, op.right, depth+1)
	case *NestedLoopJoin:
		sb.WriteString("NestedLoopJoin on true (cross)\n")
		describe(sb, op.left, depth+1)
		describe(sb, op.right, depth+1)
	case *GroupBy:
		sb.WriteString("GroupBy [")
		for i, k := range op.keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k.String())
		}
		sb.WriteString("] aggregates [")
		for i, a := range op.aggs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.Kind.String())
			sb.WriteByte('(')
			if a.Arg != nil {
				sb.WriteString(a.Arg.String())
			} else {
				sb.WriteByte('*')
			}
			sb.WriteByte(')')
		}
		sb.WriteString("]\n")
		describe(sb, op.in, depth+1)
	case *Sort:
		sb.WriteString("Sort [")
		for i, k := range op.keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k.Expr.String())
			if k.Desc {
				sb.WriteString(" desc")
			} else {
				sb.WriteString(" asc")
			}
		}
		sb.WriteString("]\n")
		describe(sb, op.in, depth+1)
	case *Limit:
		sb.WriteString("Limit ")
		sb.WriteString(strconv.Itoa(op.n))
		sb.WriteByte('\n')
		describe(sb, op.in, depth+1)
	default:
		fmt.Fprintf(sb, "%T\n", it)
	}
}

// writeConjuncts writes a predicate as its top-level conjuncts joined by
// AND, in the order they are tested.
func writeConjuncts(sb *strings.Builder, e Expr) {
	if l, ok := e.(*Logic); ok && l.Op == OpAnd {
		writeConjuncts(sb, l.L)
		sb.WriteString(" AND ")
		e = l.R
	}
	sb.WriteString(e.String())
}
