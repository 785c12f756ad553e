package sql

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// refRun is the reference executor the planner and the engine's operators
// are checked against. It shares the parser, expression binding and scalar
// evaluation with them and nothing else: no predicate pushdown, no hash
// join, no column pruning, no key table, no merging accumulator, no fused
// SUM. It runs a statement the way its semantics are written down:
//
//	the cross product of the FROM tables, in FROM order, annotations
//	multiplied left to right → the whole WHERE as one predicate → groups
//	in first-seen order, two rows in one group when Compare says 0 on every
//	key → aggregates and group annotations folded row by row with
//	polynomial.Add and polynomial.Mul → HAVING → stable ORDER BY → the
//	select list → LIMIT.
//
// A SUM keeps the engine's stated contract for what is concrete: a
// non-symbolic value on a row annotated 1 goes to a float sum, which joins
// the symbolic part last.
func refRun(query string, cat engine.Catalog) (*relation.Relation, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	var schema *relation.Schema
	var rows []relation.Tuple
	for i, ref := range stmt.From {
		rel, ok := cat[ref.Name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", ref.Name)
		}
		qualified := rel.Schema.WithQualifier(ref.Alias)
		if i == 0 {
			schema, rows = qualified, rel.Rows
			continue
		}
		schema = schema.Concat(qualified)
		var product []relation.Tuple
		for _, l := range rows {
			for _, r := range rel.Rows {
				vals := append(append([]relation.Value(nil), l.Values...), r.Values...)
				product = append(product, relation.Tuple{Values: vals, Ann: polynomial.Mul(l.Ann, r.Ann)})
			}
		}
		rows = product
	}
	if stmt.Where != nil {
		pred, err := bind(stmt.Where, schema)
		if err != nil {
			return nil, err
		}
		if rows, err = refFilter(rows, pred); err != nil {
			return nil, err
		}
	}

	grouped := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		grouped = grouped || containsCall(it.Expr)
	}
	// bindOut binds an expression of the select list, HAVING or ORDER BY:
	// over the aggregate output for a grouped query, over the joined rows
	// otherwise.
	bindOut := func(e Expr) (engine.Expr, error) { return bind(e, schema) }
	if grouped {
		var ctx *aggContext
		if rows, ctx, err = refGroup(stmt, schema, rows); err != nil {
			return nil, err
		}
		bindOut = (&planner{aggCtx: ctx}).rewriteAggExpr
		if stmt.Having != nil {
			pred, err := bindOut(stmt.Having)
			if err != nil {
				return nil, err
			}
			if rows, err = refFilter(rows, pred); err != nil {
				return nil, err
			}
		}
	}

	var items []engine.Expr
	var names []string
	if stmt.Star {
		for i, c := range schema.Cols {
			items = append(items, &engine.ColRef{Idx: i, Name: c.Qualified()})
			names = append(names, c.Name)
		}
	}
	for _, it := range stmt.Items {
		bound, err := bindOut(it.Expr)
		if err != nil {
			return nil, err
		}
		items = append(items, bound)
		names = append(names, it.name())
	}

	if len(stmt.OrderBy) > 0 {
		keys := make([]engine.Expr, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			if idx := matchSelectItem(o.Expr, stmt.Items, names); idx >= 0 {
				keys[i] = items[idx]
			} else if keys[i], err = bindOut(o.Expr); err != nil {
				return nil, err
			}
		}
		type keyed struct {
			row  relation.Tuple
			keys []relation.Value
		}
		sorted := make([]keyed, len(rows))
		for ri := range rows {
			sorted[ri].row = rows[ri]
			for _, k := range keys {
				v, err := k.Eval(&rows[ri])
				if err != nil {
					return nil, err
				}
				sorted[ri].keys = append(sorted[ri].keys, v)
			}
		}
		var sortErr error
		sort.SliceStable(sorted, func(a, b int) bool {
			for k, o := range stmt.OrderBy {
				c, err := sorted[a].keys[k].Compare(sorted[b].keys[k])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c != 0 {
					return (c < 0) != o.Desc
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for ri := range sorted {
			rows[ri] = sorted[ri].row
		}
	}

	cols := make([]relation.Column, len(names))
	for i, n := range names {
		cols[i] = relation.Column{Name: n}
	}
	out := relation.NewRelation("result", relation.NewSchema(cols...))
	for ri := range rows {
		if stmt.Limit >= 0 && ri >= stmt.Limit {
			break
		}
		vals := make([]relation.Value, len(items))
		for i, it := range items {
			if vals[i], err = it.Eval(&rows[ri]); err != nil {
				return nil, err
			}
		}
		out.Rows = append(out.Rows, relation.Tuple{Values: vals, Ann: rows[ri].Ann})
	}
	return out, nil
}

func refFilter(rows []relation.Tuple, pred engine.Expr) ([]relation.Tuple, error) {
	var kept []relation.Tuple
	for ri := range rows {
		v, err := pred.Eval(&rows[ri])
		if err != nil {
			return nil, err
		}
		if engine.Truthy(v) {
			kept = append(kept, rows[ri])
		}
	}
	return kept, nil
}

// refAgg is one aggregate of one group, folded row by row.
type refAgg struct {
	f        float64               // concrete contributions, in row order
	p        polynomial.Polynomial // symbolic contributions, Add-ed in row order
	symbolic bool
	count    int64
	best     relation.Value
	have     bool
}

func refSimplify(p polynomial.Polynomial) relation.Value {
	if c, ok := p.IsConstant(); ok {
		return relation.Float(c)
	}
	return relation.Poly(p)
}

// refGroup groups rows (a whole input is one group when there is no GROUP
// BY, and no row is no group) and returns one row per group — key values,
// then one value per distinct aggregate call of the statement — with the
// context that maps group expressions and calls to those columns.
func refGroup(stmt *SelectStmt, schema *relation.Schema, rows []relation.Tuple) ([]relation.Tuple, *aggContext, error) {
	ctx := &aggContext{groupIdx: map[string]int{}, aggIdx: map[string]int{}}
	var keys []engine.Expr
	for _, g := range stmt.GroupBy {
		bound, err := bind(g, schema)
		if err != nil {
			return nil, nil, err
		}
		ctx.groupIdx[g.String()] = len(keys)
		keys = append(keys, bound)
	}
	var calls []*Call
	var args []engine.Expr
	var bindErr error
	collect := func(e Expr) bool {
		call, ok := e.(*Call)
		if !ok || bindErr != nil {
			return bindErr == nil
		}
		if _, seen := ctx.aggIdx[call.String()]; !seen {
			var arg engine.Expr
			if !call.Star {
				arg, bindErr = bind(call.Arg, schema)
			}
			ctx.aggIdx[call.String()] = len(keys) + len(calls)
			calls, args = append(calls, call), append(args, arg)
		}
		return false
	}
	for _, it := range stmt.Items {
		walkExpr(it.Expr, collect)
	}
	walkExpr(stmt.Having, collect)
	for _, o := range stmt.OrderBy {
		walkExpr(o.Expr, collect)
	}
	if bindErr != nil {
		return nil, nil, bindErr
	}

	type group struct {
		key  []relation.Value
		ann  polynomial.Polynomial
		aggs []refAgg
	}
	var groups []*group
	for ri := range rows {
		row := &rows[ri]
		key := make([]relation.Value, len(keys))
		for i, k := range keys {
			v, err := k.Eval(row)
			if err != nil {
				return nil, nil, err
			}
			if v.Kind() == relation.KindPoly {
				return nil, nil, fmt.Errorf("engine: GROUP BY over a symbolic value")
			}
			key[i] = v
		}
		var grp *group
		for _, g := range groups {
			same := true
			for i := range key {
				if c, err := g.key[i].Compare(key[i]); err != nil || c != 0 {
					same = false
				}
			}
			if same {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &group{key: key, aggs: make([]refAgg, len(calls))}
			groups = append(groups, grp)
		}
		grp.ann = polynomial.Add(grp.ann, row.Ann)
		one, constant := row.Ann.IsConstant()
		annIsOne := constant && one == 1
		for ai, call := range calls {
			st := &grp.aggs[ai]
			var arg relation.Value
			if args[ai] != nil {
				v, err := args[ai].Eval(row)
				if err != nil {
					return nil, nil, err
				}
				if v.IsNull() {
					continue
				}
				arg = v
			}
			switch call.Func {
			case "COUNT":
				st.count++
				if annIsOne {
					st.f++
				} else {
					st.symbolic = true
					st.p = polynomial.Add(st.p, row.Ann)
				}
			case "SUM", "AVG":
				if !arg.IsNumeric() {
					return nil, nil, fmt.Errorf("engine: %s over non-numeric %s", call.Func, arg.Kind())
				}
				st.count++
				if f, ok := arg.AsFloat(); annIsOne && ok && arg.Kind() != relation.KindPoly {
					st.f += f
					continue
				}
				vp, _ := arg.AsPoly()
				st.symbolic = true
				st.p = polynomial.Add(st.p, polynomial.Mul(row.Ann, vp))
			default: // MIN, MAX
				if _, ok := arg.AsFloat(); arg.Kind() == relation.KindPoly && !ok {
					return nil, nil, fmt.Errorf("engine: %s over a symbolic value", call.Func)
				}
				if st.have {
					c, err := arg.Compare(st.best)
					if err != nil {
						return nil, nil, err
					}
					if (call.Func == "MIN") != (c < 0) || c == 0 {
						continue
					}
				}
				st.best, st.have = arg, true
			}
		}
	}

	var out []relation.Tuple
	for _, g := range groups {
		vals := g.key
		for ai, call := range calls {
			st := &g.aggs[ai]
			if st.symbolic && st.f != 0 {
				st.p = polynomial.Add(st.p, polynomial.Const(st.f))
			}
			v := relation.Null()
			switch {
			case call.Func == "COUNT" && !st.symbolic:
				v = relation.Int(st.count)
			case call.Func == "COUNT":
				v = refSimplify(st.p)
			case call.Func == "MIN" || call.Func == "MAX":
				if st.have {
					v = st.best
				}
			case st.count == 0:
			case call.Func == "SUM" && st.symbolic:
				v = refSimplify(st.p)
			case call.Func == "SUM":
				v = relation.Float(st.f)
			case st.symbolic:
				v = refSimplify(polynomial.Scale(st.p, 1/float64(st.count)))
			default:
				v = relation.Float(st.f / float64(st.count))
			}
			vals = append(vals, v)
		}
		out = append(out, relation.Tuple{Values: vals, Ann: g.ann})
	}
	return out, ctx, nil
}

// samePolyBits reports equal monomials, term for term and bit for bit.
func samePolyBits(a, b polynomial.Polynomial) bool {
	if len(a.Mons) != len(b.Mons) {
		return false
	}
	for i := range a.Mons {
		if polynomial.CompareTerms(a.Mons[i].Terms, b.Mons[i].Terms) != 0 ||
			math.Float64bits(a.Mons[i].Coef) != math.Float64bits(b.Mons[i].Coef) {
			return false
		}
	}
	return true
}

// diffRelations returns "" when two results have the same schema and the
// same rows in the same order, every float and coefficient bit for bit.
func diffRelations(got, want *relation.Relation) string {
	if len(got.Schema.Cols) != len(want.Schema.Cols) {
		return fmt.Sprintf("%d columns, want %d", len(got.Schema.Cols), len(want.Schema.Cols))
	}
	for i, c := range want.Schema.Cols {
		if got.Schema.Cols[i].Name != c.Name {
			return fmt.Sprintf("column %d is %q, want %q", i, got.Schema.Cols[i].Name, c.Name)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for ri := range want.Rows {
		g, w := got.Rows[ri], want.Rows[ri]
		if len(g.Values) != len(w.Values) {
			return fmt.Sprintf("row %d: %d cells, want %d", ri, len(g.Values), len(w.Values))
		}
		for ci := range w.Values {
			gv, wv := g.Values[ci], w.Values[ci]
			same := gv.Kind() == wv.Kind() && gv.I() == wv.I() && gv.S() == wv.S() && gv.B() == wv.B() &&
				math.Float64bits(gv.F()) == math.Float64bits(wv.F()) && samePolyBits(gv.P(), wv.P())
			if !same {
				return fmt.Sprintf("row %d column %d: %s %v, want %s %v", ri, ci, gv.Kind(), gv, wv.Kind(), wv)
			}
		}
		if !samePolyBits(g.Ann, w.Ann) {
			return fmt.Sprintf("row %d: annotation %v, want %v", ri, g.Ann, w.Ann)
		}
	}
	return ""
}

// oracleCatalog draws three small relations made to collide: join keys
// from a handful of values, INT on one side and FLOAT on the other, with
// duplicates, NULLs and both zeros; a few group values; values whose float
// sums depend on the order they are added in. With symbolic set, cells of
// A.v and C.u are polynomials over a few variables (so term vectors repeat
// within a group) and some rows carry a symbolic or a constant ≠ 1
// annotation.
func oracleCatalog(r *rand.Rand, symbolic bool) engine.Catalog {
	names := polynomial.NewNames()
	x := func() polynomial.Var { return names.Var(fmt.Sprintf("x%d", r.Intn(3))) }
	m := func() polynomial.Var { return names.Var(fmt.Sprintf("m%d", r.Intn(2))) }
	coef := func() float64 { return math.Round(r.NormFloat64()*1e6) / 1e4 * math.Pow(10, float64(r.Intn(6))) }
	number := func() relation.Value {
		switch r.Intn(8) {
		case 0:
			return relation.Null()
		case 1:
			return relation.Int(int64(r.Intn(3))) // 0 and 1: the fused SUM's edge factors
		case 2:
			return relation.Float(1e-200)
		}
		return relation.Float(coef())
	}
	cell := func() relation.Value {
		if !symbolic || r.Intn(5) == 0 {
			return number()
		}
		switch r.Intn(12) {
		case 0:
			return relation.Poly(polynomial.Polynomial{})
		case 1:
			return relation.Poly(polynomial.Const(3))
		case 2:
			return relation.Poly(polynomial.New(polynomial.Mono(1e-200, polynomial.T(x())))) // underflows against 1e-200
		case 3, 4:
			return relation.Poly(polynomial.New(polynomial.Mono(coef(), polynomial.T(x())), polynomial.Mono(coef())))
		}
		return relation.Poly(polynomial.New(polynomial.Mono(coef(), polynomial.T(x()), polynomial.T(m()))))
	}
	annotate := func(rel *relation.Relation) {
		for ri := range rel.Rows {
			switch {
			case !symbolic || r.Intn(3) != 0:
			case r.Intn(4) == 0:
				rel.Rows[ri].Ann = polynomial.Const(2)
			default:
				rel.Rows[ri].Ann = polynomial.VarPoly(names.Var(fmt.Sprintf("t%d", r.Intn(3))))
			}
		}
	}
	intKey := func() relation.Value {
		if r.Intn(10) == 0 {
			return relation.Null()
		}
		return relation.Int(int64(r.Intn(4)))
	}
	floatKey := func() relation.Value {
		switch r.Intn(12) {
		case 0:
			return relation.Null()
		case 1:
			return relation.Float(math.Copysign(0, -1))
		case 2:
			return relation.Int(int64(r.Intn(4))) // a FLOAT column holding the odd INT
		}
		return relation.Float(float64(r.Intn(4)))
	}
	group := func() relation.Value {
		if r.Intn(10) == 0 {
			return relation.Null()
		}
		return relation.Str([]string{"p", "q", "r"}[r.Intn(3)])
	}
	a := relation.NewRelation("A", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "g"}, relation.Column{Name: "v"}, relation.Column{Name: "s"}))
	for i := 0; i < 6+r.Intn(12); i++ {
		a.Append(intKey(), group(), cell(), relation.Str(string(rune('a'+r.Intn(4)))+"s"))
	}
	b := relation.NewRelation("B", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "h"}, relation.Column{Name: "w"}))
	for i := 0; i < 4+r.Intn(10); i++ {
		b.Append(floatKey(), relation.Int(int64(r.Intn(3))), number())
	}
	c := relation.NewRelation("C", relation.NewSchema(relation.Column{Name: "h"}, relation.Column{Name: "z"}, relation.Column{Name: "u"}))
	for i := 0; i < 3+r.Intn(5); i++ {
		c.Append(relation.Int(int64(r.Intn(3))), relation.Str([]string{"y", "z"}[r.Intn(2)]), cell())
	}
	annotate(a)
	annotate(b)
	annotate(c)
	return engine.Catalog{"A": a, "B": b, "C": c}
}

// oracleQuery draws a statement over the oracle catalog: one to three
// tables in some FROM order, equi-joined (sometimes with the equality
// spelled so that the planner cannot see it), filtered, and then SELECT *,
// a select list, or GROUP BY with aggregates, HAVING, ORDER BY on a column
// or an alias, and LIMIT.
func oracleQuery(r *rand.Rand) string {
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	from := [][]string{{"A"}, {"B"}, {"A", "B"}, {"B", "A"}, {"B", "C"}, {"A", "B", "C"}, {"C", "B", "A"}, {"B", "A", "C"}}[r.Intn(8)]
	has := map[string]bool{}
	for _, t := range from {
		has[t] = true
	}
	var where []string
	if has["A"] && has["B"] {
		where = append(where, pick([]string{"A.k = B.k", "A.k = B.k", "B.k = A.k", "A.k + 0 = B.k", "A.k = B.k AND A.k = B.h"}))
	}
	if has["B"] && has["C"] {
		where = append(where, pick([]string{"B.h = C.h", "C.h = B.h"}))
	}
	filters := map[string][]string{
		"A": {"A.g = 'p'", "A.k > 0", "A.s LIKE 'a%'", "A.k BETWEEN 1 AND 2", "A.g <> 'q'"},
		"B": {"B.w > 10", "B.h IN (0, 2)", "B.k >= 1", "NOT B.h = 1"},
		"C": {"C.z = 'y'", "C.h < 2"},
	}
	for _, t := range from {
		if r.Intn(3) == 0 {
			where = append(where, pick(filters[t]))
		}
	}
	if has["A"] && has["B"] && r.Intn(4) == 0 {
		where = append(where, pick([]string{"A.k <= B.h", "A.k + B.h > 1", "A.k < B.h OR A.g = 'p'"}))
	}

	concrete := map[string][]string{"A": {"A.k", "A.g", "A.s"}, "B": {"B.k", "B.h", "B.w"}, "C": {"C.h", "C.z"}}
	var cols []string // concrete columns of the tables in play
	for _, t := range from {
		cols = append(cols, concrete[t]...)
	}
	var sel, group, order []string
	having := ""
	switch mode := r.Intn(5); {
	case mode == 0:
		sel = []string{"*"}
		if r.Intn(2) == 0 {
			order = []string{pick(cols)}
		}
	case mode == 1:
		exprs := append([]string{}, cols...)
		if has["A"] {
			exprs = append(exprs, "A.v", "A.v * 2 AS v2", "CASE WHEN A.k > 1 THEN A.v ELSE 0 END AS cv", "A.k AS ak")
		}
		if has["A"] && has["B"] {
			exprs = append(exprs, "A.v * B.w AS vw", "B.w + A.k AS wk")
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			sel = append(sel, pick(exprs))
		}
		if r.Intn(2) == 0 {
			order = []string{pick(cols)}
			for _, s := range sel {
				if s == "A.k AS ak" && r.Intn(2) == 0 {
					order = []string{"ak"}
				}
			}
		}
	default:
		for i := 0; i < r.Intn(3); i++ {
			g := pick(cols)
			if !strings.Contains(strings.Join(group, ","), g) {
				group = append(group, g)
			}
		}
		for i, g := range group {
			if i == 0 && r.Intn(3) == 0 {
				sel = append(sel, g+" AS grp")
				order = []string{"grp"}
			} else {
				sel = append(sel, g)
			}
		}
		aggs := []string{"COUNT(*) AS n"}
		if has["A"] {
			aggs = append(aggs, "SUM(A.v) AS sv", "SUM(A.v) AS sv", "AVG(A.v) AS av", "COUNT(A.v) AS cv", "MAX(A.s) AS ms", "MIN(A.k) AS mk",
				"SUM(A.v * 0) AS z", "SUM(1 * A.v) AS one", "SUM(CASE WHEN A.k > 1 THEN A.v ELSE 0 END) AS cs")
		}
		if has["B"] {
			aggs = append(aggs, "SUM(B.w) AS sw", "AVG(B.w) AS aw", "MIN(B.w) AS mw", "MAX(B.k) AS xk")
		}
		if has["A"] && has["B"] {
			aggs = append(aggs, "SUM(A.v * B.w) AS rev", "SUM(A.v * B.w) AS rev", "SUM(B.w * A.v) AS ver", "AVG(A.v * B.w) AS arev", "SUM(A.v * B.w) + COUNT(*) AS mix")
		}
		if has["A"] && has["C"] {
			aggs = append(aggs, "SUM(A.v * C.u) AS vu")
		}
		if has["C"] {
			aggs = append(aggs, "SUM(C.u) AS su")
		}
		if r.Intn(15) == 0 { // the same error from both executors
			aggs = append(aggs[:1], pick([]string{"SUM(B.k * 2) AS ok", "MIN(B.w) AS ok"}))
			if has["A"] {
				aggs = []string{pick([]string{"SUM(A.s) AS bad", "MIN(A.v) AS bad", "AVG(A.g) AS bad"})}
				if r.Intn(3) == 0 {
					group = append(group, "A.v")
				}
			}
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			if a := pick(aggs); !strings.Contains(strings.Join(sel, ","), a[strings.LastIndex(a, " "):]) {
				sel = append(sel, a)
			}
		}
		if r.Intn(4) == 0 {
			having = pick([]string{"COUNT(*) > 1", "COUNT(*) >= 2 AND COUNT(*) < 9"})
		}
		if len(order) == 0 && len(group) > 0 && r.Intn(2) == 0 {
			order = []string{group[0]}
		}
	}

	q := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	if len(group) > 0 {
		q += " GROUP BY " + strings.Join(group, ", ")
	}
	if having != "" {
		q += " HAVING " + having
	}
	if len(order) > 0 {
		q += " ORDER BY " + order[0] + pick([]string{"", "", " DESC"})
	}
	if r.Intn(4) == 0 {
		q += fmt.Sprintf(" LIMIT %d", r.Intn(6))
	}
	return q
}

// TestRunRandomValidQueries runs a grammar-directed random workload through
// the planner and the engine and through the reference executor: same
// schema, same rows in the same order, every concrete cell and every
// coefficient bit for bit — or the same error.
func TestRunRandomValidQueries(t *testing.T) {
	r := rand.New(rand.NewSource(149))
	ran, failed, joined, symbolicSums := 0, 0, 0, 0
	for i := 0; i < 600; i++ {
		cat := oracleCatalog(r, i%3 != 0)
		q := oracleQuery(r)
		want, wantErr := refRun(q, cat)
		got, gotErr := Run(q, cat)
		switch {
		case (gotErr == nil) != (wantErr == nil), gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("query %d %q:\nengine error    %v\nreference error %v", i, q, gotErr, wantErr)
		case gotErr != nil:
			failed++
			continue
		}
		if d := diffRelations(got, want); d != "" {
			t.Fatalf("query %d %q: %s\nengine:\n%s\nreference:\n%s", i, q, d, got, want)
		}
		ran++
		if strings.Count(q[strings.Index(q, " FROM "):], ",") > 0 && len(got.Rows) > 0 {
			joined++
		}
		for _, row := range got.Rows {
			for _, v := range row.Values {
				if v.Kind() == relation.KindPoly && len(v.P().Mons) > 1 {
					symbolicSums++
				}
			}
		}
	}
	t.Logf("ran %d queries (%d with joined rows, %d multi-monomial cells), %d failed alike", ran, joined, symbolicSums, failed)
	// The workload must actually reach what it is there to check.
	if ran < 300 || joined < 100 || symbolicSums < 100 || failed == 0 || failed > 100 {
		t.Fatalf("ran %d queries (%d with joined rows, %d multi-monomial cells), %d failed alike", ran, joined, symbolicSums, failed)
	}
}

// TestFusedProductChains: SUM and AVG over a product of three and four
// factors — the symbolic one first, in the middle, last, twice, beside a
// string — give the reference executor's bits or its error. The engine
// folds the concrete factors of such a chain into the coefficients without
// materializing the intermediate products; the catalog's factors 0, 1 and
// 1e-200 (against 1e-200 coefficients), its zero and constant polynomials
// and its NULLs are where an intermediate product drops a monomial or stops
// being a polynomial, and the fold has to stand back.
func TestFusedProductChains(t *testing.T) {
	products := []string{
		"A.v * B.w * B.h", "B.w * A.v * B.h", "B.w * B.h * A.v", "A.v * B.w * B.h * B.w",
		"A.v * (1 - B.w) * (1 + B.h)", "B.k * A.v * 1e-200 * B.w", "A.v * B.w * A.v", "A.v * B.w * C.u",
		"A.v * B.w * A.s", "A.s * A.v * B.w", "A.v * A.s * B.w", "A.v * B.w * (B.h / 0)",
	}
	r := rand.New(rand.NewSource(20))
	ran, failed, symbolic := 0, 0, 0
	for i := 0; i < 400; i++ {
		cat := oracleCatalog(r, true)
		q := fmt.Sprintf("SELECT A.g, %s(%s) AS s FROM A, B, C WHERE A.k = B.k AND B.h = C.h GROUP BY A.g",
			[]string{"SUM", "SUM", "AVG"}[r.Intn(3)], products[i%len(products)])
		want, wantErr := refRun(q, cat)
		got, gotErr := Run(q, cat)
		switch {
		case (gotErr == nil) != (wantErr == nil), gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("query %d %q:\nengine error    %v\nreference error %v", i, q, gotErr, wantErr)
		case gotErr != nil:
			failed++
			continue
		}
		if d := diffRelations(got, want); d != "" {
			t.Fatalf("query %d %q: %s\nengine:\n%s\nreference:\n%s", i, q, d, got, want)
		}
		ran++
		for _, row := range got.Rows {
			if row.Values[1].Kind() == relation.KindPoly {
				symbolic++
			}
		}
	}
	t.Logf("ran %d queries (%d symbolic sums), %d failed alike", ran, symbolic, failed)
	if ran < 200 || symbolic < 200 || failed < 20 {
		t.Fatalf("ran %d queries (%d symbolic sums), %d failed alike: the workload misses what it is there to check", ran, symbolic, failed)
	}
}

// TestBigIntKeysMatchReference: INT keys that differ only below the
// precision of a float64 join and group as the reference executor's
// Compare says — apart.
func TestBigIntKeysMatchReference(t *testing.T) {
	const big = int64(1) << 53
	a := relation.NewRelation("A", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "v"}))
	b := relation.NewRelation("B", relation.NewSchema(relation.Column{Name: "k"}, relation.Column{Name: "w"}))
	for i := int64(0); i < 6; i++ {
		a.Append(relation.Int(big+i%3), relation.Float(float64(i)))
		b.Append(relation.Int(big+i%2), relation.Float(float64(10*i)))
	}
	cat := engine.Catalog{"A": a, "B": b}
	for q, rows := range map[string]int{
		"SELECT A.k, B.w FROM A, B WHERE A.k = B.k":                                  12, // 2 keys × 2 rows of A × 3 of B
		"SELECT A.k, COUNT(*) AS n, SUM(A.v) AS s FROM A GROUP BY A.k":               3,
		"SELECT A.k, SUM(A.v * B.w) AS s FROM A, B WHERE A.k = B.k GROUP BY A.k":     2,
		"SELECT A.k FROM A WHERE A.k > 9007199254740992 AND A.k <= 9007199254740993": 2,
	} {
		want, err := refRun(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := Run(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if d := diffRelations(got, want); d != "" || got.Len() != rows {
			t.Fatalf("%s: %d rows, want %d; %s\nengine:\n%s\nreference:\n%s", q, got.Len(), rows, d, got, want)
		}
	}
}
