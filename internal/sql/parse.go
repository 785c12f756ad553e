package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SELECT statement.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes the current token; it never advances past EOF, so callers
// can keep peeking safely after a premature end of input.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: %s (near position %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf("expected %s, got %s", kw, t)
	}
	p.next()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, got %s", sym, p.peek())
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}

	// Select list.
	if p.acceptSymbol("*") {
		stmt.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				t := p.next()
				if t.kind != tokIdent {
					return nil, p.errf("expected alias after AS, got %s", t)
				}
				item.Alias = t.Name()
			} else if p.peek().kind == tokIdent {
				item.Alias = p.next().Name()
			}
			stmt.Items = append(stmt.Items, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	// FROM.
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var joinConds []Expr
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, tr)
		// INNER JOIN chains.
		for {
			save := p.pos
			if p.acceptKeyword("INNER") {
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			} else if !p.acceptKeyword("JOIN") {
				p.pos = save
				break
			}
			jr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, jr)
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			joinConds = append(joinConds, cond)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}

	// WHERE.
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	for _, c := range joinConds {
		if stmt.Where == nil {
			stmt.Where = c
		} else {
			stmt.Where = &Binary{Op: "AND", L: stmt.Where, R: c}
		}
	}

	// GROUP BY.
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	// HAVING.
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}

	// ORDER BY.
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	// LIMIT.
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT, got %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}

	return stmt, nil
}

// Name returns an identifier token's text.
func (t token) Name() string { return t.text }

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return TableRef{}, p.errf("expected table name, got %s", t)
	}
	tr := TableRef{Name: t.Name(), Alias: t.Name()}
	if p.acceptKeyword("AS") {
		a := p.next()
		if a.kind != tokIdent {
			return TableRef{}, p.errf("expected alias after AS, got %s", a)
		}
		tr.Alias = a.Name()
	} else if p.peek().kind == tokIdent {
		tr.Alias = p.next().Name()
	}
	return tr, nil
}

// Expression grammar, loosest to tightest: OR, AND, NOT, predicate
// (comparison / BETWEEN / IN / LIKE), additive, multiplicative, unary,
// primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Optional NOT before BETWEEN/IN/LIKE.
	not := false
	save := p.pos
	if p.acceptKeyword("NOT") {
		if t := p.peek(); t.kind == tokKeyword && (t.text == "BETWEEN" || t.text == "IN" || t.text == "LIKE") {
			not = true
		} else {
			p.pos = save
			return l, nil
		}
	}
	t := p.peek()
	switch {
	case t.kind == tokSymbol && isCmpSym(t.text):
		p.next()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.text, L: l, R: r}, nil
	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.next()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not}, nil
	case t.kind == tokKeyword && t.text == "IN":
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: not}, nil
	case t.kind == tokKeyword && t.text == "LIKE":
		p.next()
		s := p.next()
		if s.kind != tokString {
			return nil, p.errf("expected pattern string after LIKE, got %s", s)
		}
		return &LikeExpr{E: l, Pattern: s.text, Not: not}, nil
	}
	if not {
		return nil, p.errf("expected BETWEEN, IN or LIKE after NOT")
	}
	return l, nil
}

func isCmpSym(s string) bool {
	switch s {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

// parseCase parses a searched CASE (the CASE keyword is already consumed):
// WHEN cond THEN expr [WHEN ...] [ELSE expr] END.
func (p *parser) parseCase() (Expr, error) {
	e := &CaseExpr{}
	for {
		if err := p.expectKeyword("WHEN"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Whens = append(e.Whens, CaseBranch{Cond: cond, Result: result})
		if t := p.peek(); t.kind == tokKeyword && t.text == "WHEN" {
			continue
		}
		break
	}
	if p.acceptKeyword("ELSE") {
		alt, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Else = alt
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return e, nil
}

var aggFuncs = map[string]bool{"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &NumberLit{F: f}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &NumberLit{IsInt: true, I: i, F: float64(i)}, nil
	case t.kind == tokString:
		p.next()
		return &StringLit{Val: t.text}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return &NullLit{}, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.next()
		return &BoolLit{Val: t.text == "TRUE"}, nil
	case t.kind == tokKeyword && t.text == "CASE":
		p.next()
		return p.parseCase()
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.next()
		name := t.Name()
		up := strings.ToUpper(name)
		// Aggregate call?
		if aggFuncs[up] && p.peek().kind == tokSymbol && p.peek().text == "(" {
			p.next() // consume '('
			if p.acceptSymbol("*") {
				if up != "COUNT" {
					return nil, p.errf("only COUNT accepts *")
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &Call{Func: up, Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &Call{Func: up, Arg: arg}, nil
		}
		// Qualified identifier?
		if p.peek().kind == tokSymbol && p.peek().text == "." {
			p.next()
			c := p.next()
			if c.kind != tokIdent {
				return nil, p.errf("expected column after %q., got %s", name, c)
			}
			return &Ident{Table: name, Name: c.Name()}, nil
		}
		return &Ident{Name: name}, nil
	default:
		return nil, p.errf("unexpected %s", t)
	}
}
