package sql

import (
	"fmt"
	"strings"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/relation"
)

// Run parses, plans, and executes a SELECT against the catalog.
func Run(query string, cat engine.Catalog) (*relation.Relation, error) {
	plan, err := Open(query, cat)
	if err != nil {
		return nil, err
	}
	return engine.Collect("result", plan)
}

// Open parses and plans a SELECT without executing it, returning the
// ready-to-run iterator — the entry point for streaming consumers
// (engine.Stream, provenance.CaptureStream) that must see the result
// schema up front and must not materialize the result relation.
func Open(query string, cat engine.Catalog) (engine.Iterator, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Plan(stmt, cat)
}

// Plan binds a parsed statement against the catalog and builds an engine
// plan: filters pushed below joins, hash joins on extracted equality
// predicates (left-deep in FROM order) that emit only the columns still
// read above them, aggregation, HAVING, projection, ORDER BY, LIMIT.
func Plan(stmt *SelectStmt, cat engine.Catalog) (engine.Iterator, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: FROM is required")
	}
	p := &planner{cat: cat, stmt: stmt}
	if err := p.resolveTables(); err != nil {
		return nil, err
	}
	if err := p.classifyConjuncts(); err != nil {
		return nil, err
	}
	cur, err := p.buildJoinTree()
	if err != nil {
		return nil, err
	}
	return p.buildUpper(cur)
}

type plannedTable struct {
	alias  string
	scan   *engine.Scan
	schema *relation.Schema
	where  Expr // the conjuncts that read only this table, AND-ed in WHERE order
}

type equiPred struct {
	lTable, rTable string
	l, r           *Ident
	reads          []relation.Column // the two columns, for liveColumns
	used           bool
}

type planner struct {
	cat  engine.Catalog
	stmt *SelectStmt

	tables  []*plannedTable
	byAlias map[string]*plannedTable

	equi []equiPred
	rest []restPred // conjuncts applied once their tables are joined

	readAbove []relation.Column // what the clauses other than WHERE read (liveColumns)

	aggCtx *aggContext
}

type restPred struct {
	expr    Expr
	tables  map[string]bool
	reads   []relation.Column // the columns expr reads, for liveColumns
	applied bool
}

func (p *planner) resolveTables() error {
	p.byAlias = make(map[string]*plannedTable)
	for _, tr := range p.stmt.From {
		rel, ok := p.cat[tr.Name]
		if !ok {
			return fmt.Errorf("sql: unknown table %q", tr.Name)
		}
		if _, dup := p.byAlias[tr.Alias]; dup {
			return fmt.Errorf("sql: duplicate table alias %q", tr.Alias)
		}
		sc := engine.NewScan(rel, tr.Alias)
		pt := &plannedTable{alias: tr.Alias, scan: sc, schema: sc.Schema()}
		p.tables = append(p.tables, pt)
		p.byAlias[tr.Alias] = pt
	}
	return nil
}

// splitConjuncts flattens the AND tree.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

// tablesOf returns the aliases referenced by e, resolving unqualified
// identifiers against the planned tables.
func (p *planner) tablesOf(e Expr) (map[string]bool, error) {
	out := make(map[string]bool)
	var err error
	walkExpr(e, func(e Expr) bool {
		if id, ok := e.(*Ident); ok && err == nil {
			var alias string
			if alias, err = p.resolveIdent(id); err == nil {
				out[alias] = true
			}
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// resolveIdent finds the table an identifier belongs to.
func (p *planner) resolveIdent(id *Ident) (string, error) {
	if id.Table != "" {
		pt, ok := p.byAlias[id.Table]
		if !ok {
			return "", fmt.Errorf("sql: unknown table %q in %s", id.Table, id)
		}
		if _, err := pt.schema.Index(id.String()); err != nil {
			return "", err
		}
		return id.Table, nil
	}
	found := ""
	for _, pt := range p.tables {
		if _, err := pt.schema.Index(pt.alias + "." + id.Name); err == nil {
			if found != "" {
				return "", fmt.Errorf("sql: ambiguous column %q (in %s and %s)", id.Name, found, pt.alias)
			}
			found = pt.alias
		}
	}
	if found == "" {
		return "", fmt.Errorf("sql: unknown column %q", id.Name)
	}
	return found, nil
}

func (p *planner) classifyConjuncts() error {
	if p.stmt.Where == nil {
		return nil
	}
	for _, c := range splitConjuncts(p.stmt.Where, nil) {
		tabs, err := p.tablesOf(c)
		if err != nil {
			return err
		}
		switch len(tabs) {
		case 0:
			p.rest = append(p.rest, restPred{expr: c, tables: tabs})
		case 1:
			for a := range tabs {
				pt := p.byAlias[a]
				if pt.where != nil {
					c = &Binary{Op: "AND", L: pt.where, R: c}
				}
				pt.where = c
			}
		default:
			// Equi-join predicate?
			if b, ok := c.(*Binary); ok && b.Op == "=" && len(tabs) == 2 {
				li, lok := b.L.(*Ident)
				ri, rok := b.R.(*Ident)
				if lok && rok {
					la, err := p.resolveIdent(li)
					if err != nil {
						return err
					}
					ra, err := p.resolveIdent(ri)
					if err != nil {
						return err
					}
					if la != ra {
						p.equi = append(p.equi, equiPred{lTable: la, rTable: ra, l: li, r: ri, reads: p.columnsRead(c, nil)})
						continue
					}
				}
			}
			p.rest = append(p.rest, restPred{expr: c, tables: tabs, reads: p.columnsRead(c, nil)})
		}
	}
	return nil
}

// tableIterator builds the scan of one table, which tests the table's
// pushed-down conjuncts on each row it reads.
func (p *planner) tableIterator(pt *plannedTable) (engine.Iterator, error) {
	if pt.where != nil {
		bound, err := bind(pt.where, pt.schema)
		if err != nil {
			return nil, err
		}
		pt.scan.Where(bound)
	}
	return pt.scan, nil
}

func (p *planner) buildJoinTree() (engine.Iterator, error) {
	cur, err := p.tableIterator(p.tables[0])
	if err != nil {
		return nil, err
	}
	joined := map[string]bool{p.tables[0].alias: true}

	for i := 1; i < len(p.tables); i++ {
		pt := p.tables[i]
		right, err := p.tableIterator(pt)
		if err != nil {
			return nil, err
		}
		// Hash keys: equi predicates connecting the joined set to pt.
		leftIdxs := make([]int, 0, len(p.equi))
		rightIdxs := make([]int, 0, len(p.equi))
		for ei := range p.equi {
			ep := &p.equi[ei]
			if ep.used {
				continue
			}
			var joinedSide, newSide *Ident
			switch {
			case joined[ep.lTable] && ep.rTable == pt.alias:
				joinedSide, newSide = ep.l, ep.r
			case joined[ep.rTable] && ep.lTable == pt.alias:
				joinedSide, newSide = ep.r, ep.l
			default:
				continue
			}
			li, err := cur.Schema().Index(joinedSide.String())
			if err != nil {
				return nil, err
			}
			ri, err := right.Schema().Index(newSide.String())
			if err != nil {
				return nil, err
			}
			leftIdxs = append(leftIdxs, li)
			rightIdxs = append(rightIdxs, ri)
			ep.used = true
		}
		if len(leftIdxs) > 0 {
			hj, err := engine.NewHashJoin(cur, right, leftIdxs, rightIdxs, p.liveColumns(cur.Schema(), right.Schema()))
			if err != nil {
				return nil, err
			}
			cur = hj
		} else {
			cur = engine.NewNestedLoopJoin(cur, right)
		}
		joined[pt.alias] = true

		// Apply any predicates that became fully covered.
		cur, err = p.applyCovered(cur, joined)
		if err != nil {
			return nil, err
		}
	}

	// Single-table queries never enter the loop; table-free predicates may
	// also still be pending. Apply everything that remains, then assert.
	cur, err = p.applyCovered(cur, joined)
	if err != nil {
		return nil, err
	}
	for ei := range p.equi {
		if !p.equi[ei].used {
			return nil, fmt.Errorf("sql: internal error, unapplied join predicate %s = %s", p.equi[ei].l, p.equi[ei].r)
		}
	}
	for ri := range p.rest {
		if !p.rest[ri].applied {
			return nil, fmt.Errorf("sql: internal error, unapplied predicate %s", p.rest[ri].expr)
		}
	}
	return cur, nil
}

// columnsRead appends to dst the columns e reads. An unqualified name
// reads the column of every table that has one, so binding meets the same
// ambiguities, and reports the same errors, with and without pruning.
func (p *planner) columnsRead(e Expr, dst []relation.Column) []relation.Column {
	walkExpr(e, func(e Expr) bool {
		if id, ok := e.(*Ident); ok {
			for _, pt := range p.tables {
				if id.Table != "" && !strings.EqualFold(id.Table, pt.alias) {
					continue
				}
				for _, c := range pt.schema.Cols {
					if strings.EqualFold(c.Name, id.Name) {
						dst = append(dst, c)
					}
				}
			}
		}
		return true
	})
	return dst
}

// liveColumns lists, as ascending indices into the concatenation of the
// two schemas, the columns of a join that something above it still reads:
// the select list, GROUP BY, HAVING and ORDER BY, and every WHERE conjunct
// not applied yet (the join's own keys are already marked used). nil means
// every column (SELECT *). An ORDER BY key that is a select alias names no
// column, unless a column shares the name — which is then kept for
// nothing, and harmlessly.
func (p *planner) liveColumns(left, right *relation.Schema) []int {
	stmt := p.stmt
	if stmt.Star {
		return nil
	}
	if p.readAbove == nil {
		for _, it := range stmt.Items {
			p.readAbove = p.columnsRead(it.Expr, p.readAbove)
		}
		for _, g := range stmt.GroupBy {
			p.readAbove = p.columnsRead(g, p.readAbove)
		}
		p.readAbove = p.columnsRead(stmt.Having, p.readAbove)
		for _, o := range stmt.OrderBy {
			p.readAbove = p.columnsRead(o.Expr, p.readAbove)
		}
	}
	live := make(map[relation.Column]bool)
	for _, c := range p.readAbove {
		live[c] = true
	}
	for ei := range p.equi {
		if ep := &p.equi[ei]; !ep.used {
			for _, c := range ep.reads {
				live[c] = true
			}
		}
	}
	for ri := range p.rest {
		if rp := &p.rest[ri]; !rp.applied {
			for _, c := range rp.reads {
				live[c] = true
			}
		}
	}
	keep := make([]int, 0, left.Len()+right.Len())
	for i, c := range left.Cols {
		if live[c] {
			keep = append(keep, i)
		}
	}
	for i, c := range right.Cols {
		if live[c] {
			keep = append(keep, left.Len()+i)
		}
	}
	return keep
}

// applyCovered filters cur with remaining predicates whose tables are all
// joined, and with unused equi predicates inside the joined set.
func (p *planner) applyCovered(cur engine.Iterator, joined map[string]bool) (engine.Iterator, error) {
	for ei := range p.equi {
		ep := &p.equi[ei]
		if ep.used || !joined[ep.lTable] || !joined[ep.rTable] {
			continue
		}
		bound, err := bind(&Binary{Op: "=", L: ep.l, R: ep.r}, cur.Schema())
		if err != nil {
			return nil, err
		}
		cur = engine.NewFilter(cur, bound)
		ep.used = true
	}
	for ri := range p.rest {
		rp := &p.rest[ri]
		if rp.applied {
			continue
		}
		covered := true
		for t := range rp.tables {
			if !joined[t] {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		bound, err := bind(rp.expr, cur.Schema())
		if err != nil {
			return nil, err
		}
		cur = engine.NewFilter(cur, bound)
		rp.applied = true
	}
	return cur, nil
}

// buildUpper adds aggregation, HAVING, projection, ORDER BY and LIMIT.
func (p *planner) buildUpper(cur engine.Iterator) (engine.Iterator, error) {
	var err error
	stmt := p.stmt
	hasAgg := len(stmt.GroupBy) > 0
	if !hasAgg {
		for _, it := range stmt.Items {
			if containsCall(it.Expr) {
				hasAgg = true
				break
			}
		}
	}
	if stmt.Having != nil && !hasAgg {
		return nil, fmt.Errorf("sql: HAVING requires aggregation")
	}

	var projections []engine.Projection
	var outNames []string

	if hasAgg {
		if stmt.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
		}
		cur, projections, outNames, err = p.buildAggregate(cur)
		if err != nil {
			return nil, err
		}
	} else {
		if stmt.Star {
			for i, c := range cur.Schema().Cols {
				projections = append(projections, engine.Projection{
					Expr: &engine.ColRef{Idx: i, Name: c.Qualified()},
					Name: c.Name,
				})
				outNames = append(outNames, c.Name)
			}
		} else {
			for _, it := range stmt.Items {
				bound, err := bind(it.Expr, cur.Schema())
				if err != nil {
					return nil, err
				}
				projections = append(projections, engine.Projection{Expr: bound, Name: it.name()})
				outNames = append(outNames, it.name())
			}
		}
	}

	// ORDER BY binds against the pre-projection schema via select-item
	// rewriting: an order key may be a select alias, a select expression, or
	// (in non-aggregate queries) any input expression.
	var sortKeys []engine.SortKey
	if len(stmt.OrderBy) > 0 {
		for _, o := range stmt.OrderBy {
			// Alias or textual match against a select item?
			if idx := matchSelectItem(o.Expr, stmt.Items, outNames); idx >= 0 {
				sortKeys = append(sortKeys, engine.SortKey{
					Expr: projections[idx].Expr,
					Desc: o.Desc,
				})
				continue
			}
			if hasAgg {
				bound, err := p.rewriteAggExpr(o.Expr)
				if err != nil {
					return nil, fmt.Errorf("sql: ORDER BY %s: %w", o.Expr, err)
				}
				sortKeys = append(sortKeys, engine.SortKey{Expr: bound, Desc: o.Desc})
				continue
			}
			bound, err := bind(o.Expr, cur.Schema())
			if err != nil {
				return nil, fmt.Errorf("sql: ORDER BY %s: %w", o.Expr, err)
			}
			sortKeys = append(sortKeys, engine.SortKey{Expr: bound, Desc: o.Desc})
		}
		cur = engine.NewSort(cur, sortKeys)
	}

	cur = engine.NewProject(cur, projections)
	if stmt.Limit >= 0 {
		cur = engine.NewLimit(cur, stmt.Limit)
	}
	return cur, nil
}

// matchSelectItem matches an ORDER BY expression against select items by
// alias or by textual equality, returning the item index or -1.
func matchSelectItem(e Expr, items []SelectItem, outNames []string) int {
	if id, ok := e.(*Ident); ok && id.Table == "" {
		for i, n := range outNames {
			if strings.EqualFold(n, id.Name) {
				return i
			}
		}
	}
	s := e.String()
	for i, it := range items {
		if it.Expr.String() == s {
			return i
		}
	}
	return -1
}

func containsCall(e Expr) bool {
	found := false
	walkExpr(e, func(e Expr) bool {
		_, call := e.(*Call)
		found = found || call
		return !found
	})
	return found
}

// aggContext is established by buildAggregate for post-aggregation
// rewriting.
type aggContext struct {
	groupIdx map[string]int // group expr string -> output column
	aggIdx   map[string]int // agg call string -> output column
	schema   *relation.Schema
}

var aggCtxKinds = map[string]engine.AggKind{
	"SUM": engine.AggSum, "COUNT": engine.AggCount, "AVG": engine.AggAvg,
	"MIN": engine.AggMin, "MAX": engine.AggMax,
}

func (p *planner) buildAggregate(cur engine.Iterator) (engine.Iterator, []engine.Projection, []string, error) {
	stmt := p.stmt

	// Bind group keys.
	var keys []engine.Expr
	var keyNames []string
	groupIdx := make(map[string]int)
	for _, g := range stmt.GroupBy {
		bound, err := bind(g, cur.Schema())
		if err != nil {
			return nil, nil, nil, err
		}
		keys = append(keys, bound)
		name := g.String()
		groupIdx[name] = len(keyNames)
		keyNames = append(keyNames, name)
	}

	// Collect aggregate calls from select items, HAVING, ORDER BY.
	aggIdx := make(map[string]int)
	var specs []engine.AggSpec
	collect := func(e Expr) error {
		var err error
		walkExpr(e, func(e Expr) bool {
			x, ok := e.(*Call)
			if !ok || err != nil {
				return err == nil
			}
			key := x.String()
			if _, seen := aggIdx[key]; seen {
				return false
			}
			kind, ok := aggCtxKinds[x.Func]
			if !ok {
				err = fmt.Errorf("sql: unknown aggregate %q", x.Func)
				return false
			}
			var arg engine.Expr
			if !x.Star {
				if containsCall(x.Arg) {
					err = fmt.Errorf("sql: nested aggregates in %s", x)
					return false
				}
				if arg, err = bind(x.Arg, cur.Schema()); err != nil {
					return false
				}
			}
			aggIdx[key] = len(keyNames) + len(specs)
			specs = append(specs, engine.AggSpec{Kind: kind, Arg: arg, Name: key})
			return false
		})
		return err
	}
	for _, it := range stmt.Items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, nil, nil, err
		}
	}

	gb, err := engine.NewGroupBy(cur, keys, keyNames, specs)
	if err != nil {
		return nil, nil, nil, err
	}
	var out engine.Iterator = gb

	p.aggCtx = &aggContext{groupIdx: groupIdx, aggIdx: aggIdx, schema: gb.Schema()}

	// HAVING.
	if stmt.Having != nil {
		bound, err := p.rewriteAggExpr(stmt.Having)
		if err != nil {
			return nil, nil, nil, err
		}
		out = engine.NewFilter(out, bound)
	}

	// Select items over the aggregate output.
	var projections []engine.Projection
	var outNames []string
	for _, it := range stmt.Items {
		bound, err := p.rewriteAggExpr(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		projections = append(projections, engine.Projection{Expr: bound, Name: it.name()})
		outNames = append(outNames, it.name())
	}
	return out, projections, outNames, nil
}

// rewriteAggExpr rewrites an expression over the aggregate output schema:
// aggregate calls and group expressions become column references; the rest
// must be literals or arithmetic over them.
func (p *planner) rewriteAggExpr(e Expr) (engine.Expr, error) {
	ctx := p.aggCtx
	if idx, ok := ctx.groupIdx[e.String()]; ok {
		return &engine.ColRef{Idx: idx, Name: e.String()}, nil
	}
	switch x := e.(type) {
	case *Call:
		idx, ok := ctx.aggIdx[x.String()]
		if !ok {
			return nil, fmt.Errorf("sql: aggregate %s was not collected", x)
		}
		return &engine.ColRef{Idx: idx, Name: x.String()}, nil
	case *Ident:
		return nil, fmt.Errorf("sql: column %s must appear in GROUP BY or inside an aggregate", x)
	case *NumberLit, *StringLit, *BoolLit, *NullLit:
		return bindLit(e), nil
	case *Binary:
		l, err := p.rewriteAggExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := p.rewriteAggExpr(x.R)
		if err != nil {
			return nil, err
		}
		return combineBinary(x.Op, l, r)
	case *Unary:
		inner, err := p.rewriteAggExpr(x.E)
		if err != nil {
			return nil, err
		}
		if x.Op == "-" {
			return &engine.Neg{E: inner}, nil
		}
		return &engine.Logic{Op: engine.OpNot, L: inner}, nil
	case *BetweenExpr:
		ei, err := p.rewriteAggExpr(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := p.rewriteAggExpr(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := p.rewriteAggExpr(x.Hi)
		if err != nil {
			return nil, err
		}
		return &engine.Between{E: ei, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *CaseExpr:
		out := &engine.Case{}
		for _, w := range x.Whens {
			cond, err := p.rewriteAggExpr(w.Cond)
			if err != nil {
				return nil, err
			}
			result, err := p.rewriteAggExpr(w.Result)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, engine.CaseWhen{When: cond, Then: result})
		}
		if x.Else != nil {
			alt, err := p.rewriteAggExpr(x.Else)
			if err != nil {
				return nil, err
			}
			out.Else = alt
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sql: unsupported post-aggregation expression %s", e)
	}
}
