package engine

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	AggSum AggKind = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	return [...]string{"SUM", "COUNT", "AVG", "MIN", "MAX"}[k]
}

// AggSpec is one aggregate output: Kind applied to Arg (nil Arg means
// COUNT(*)).
type AggSpec struct {
	Kind AggKind
	Arg  Expr
	Name string
}

// GroupBy materializes its input and emits one tuple per group: the group
// key values followed by the aggregates.
//
// SUM and COUNT follow the aggregation semimodule of Amsterdamer et al.:
// SUM(e) = Σ ann(t) ⊗ e(t), COUNT = Σ ann(t) ⊗ 1. With un-instrumented
// annotations (ann = 1) and concrete values this degenerates to ordinary
// SUM/COUNT; with symbolic cell values or annotations it produces the
// provenance polynomials COBRA consumes. The output tuple's annotation is
// the sum of the group's annotations.
//
// MIN/MAX require concrete values (the order of symbolic values is not
// defined until a valuation is applied).
type GroupBy struct {
	in     Iterator
	keys   []Expr
	aggs   []AggSpec
	schema *relation.Schema
	rows   []relation.Tuple
	pos    int
	scales []float64 // sumProduct's concrete factors of the current row
}

// NewGroupBy builds an aggregation node; keyNames label the key columns in
// the output schema.
func NewGroupBy(in Iterator, keys []Expr, keyNames []string, aggs []AggSpec) (*GroupBy, error) {
	if len(keys) != len(keyNames) {
		return nil, fmt.Errorf("engine: %d group keys but %d names", len(keys), len(keyNames))
	}
	cols := make([]relation.Column, 0, len(keys)+len(aggs))
	for _, n := range keyNames {
		cols = append(cols, relation.Column{Name: n})
	}
	for _, a := range aggs {
		cols = append(cols, relation.Column{Name: a.Name})
	}
	return &GroupBy{in: in, keys: keys, aggs: aggs, schema: relation.NewSchema(cols...)}, nil
}

func (g *GroupBy) Schema() *relation.Schema { return g.schema }
func (g *GroupBy) Close() error             { g.rows = nil; return g.in.Close() }

// aggState accumulates one aggregate within one group.
type aggState struct {
	// sum accumulation: concrete contributions in f, symbolic ones merged
	// into acc as they arrive (f joins them last, in finalize)
	f        float64
	acc      polynomial.Accumulator
	symbolic bool
	count    int64
	// min/max
	best    relation.Value
	haveVal bool
}

// annSum is a group's annotation: the sum of its rows' annotations, kept as
// a float while every one of them is constant (un-instrumented rows all
// carry 1) and merged term by term from the first that is not. Both give
// the bits a chain of polynomial.Add over the rows would.
type annSum struct {
	f        float64
	acc      polynomial.Accumulator
	symbolic bool
}

func (a *annSum) add(p polynomial.Polynomial) {
	if !a.symbolic {
		if c, ok := p.IsConstant(); ok {
			a.f += c
			return
		}
		a.symbolic = true
		a.acc.Add(a.f, nil)
	}
	a.acc.AddPolynomial(p)
}

func (a *annSum) polynomial() polynomial.Polynomial {
	if a.symbolic {
		return a.acc.Polynomial()
	}
	return polynomial.Const(a.f)
}

func (g *GroupBy) Open() error {
	if err := g.in.Open(); err != nil {
		return err
	}
	if err := g.build(); err != nil {
		g.in.Close() // the drain error is the primary failure
		return err
	}
	return nil
}

// build drains the (already opened) input and materializes the groups, in
// the order their keys were first seen. Group keys are the keyTable's
// (Compare == 0 cell by cell; NULL is a key of its own).
func (g *GroupBy) build() error {
	g.rows = g.rows[:0]
	g.pos = 0

	nk, na := len(g.keys), len(g.aggs)
	var groups keyTable
	// A group's aggregate states and annotation materialize when its key
	// is first seen — per distinct group, not per row.
	states := chunked[aggState]{width: na}
	anns := chunked[annSum]{width: 1}
	key, keyCols := make([]relation.Value, nk), columns(nk)

	// t is hoisted out of the loop: Eval/accumulate take its address
	// through an interface, and a loop-local tuple would escape per row.
	var t relation.Tuple
	var ok bool
	var err error
	for {
		t, ok, err = g.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i, k := range g.keys {
			v, err := k.Eval(&t)
			if err != nil {
				return err
			}
			if v.Kind() == relation.KindPoly {
				return fmt.Errorf("engine: GROUP BY over a symbolic value")
			}
			key[i] = v
		}
		gi, _ := groups.lookup(hashKey(key, keyCols), key, keyCols, true)
		anns.at(gi)[0].add(t.Ann)
		st := states.at(gi)
		for ai := range g.aggs {
			if err := g.accumulate(&st[ai], &g.aggs[ai], &t); err != nil {
				return err
			}
		}
	}

	vals := make([]relation.Value, 0, groups.len()*(nk+na))
	for gi := 0; gi < groups.len(); gi++ {
		off := len(vals)
		vals = append(vals, groups.key(gi)...)
		for ai := range g.aggs {
			v, err := finalize(&states.at(gi)[ai], &g.aggs[ai])
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		g.rows = append(g.rows, relation.Tuple{Values: vals[off:len(vals):len(vals)], Ann: anns.at(gi)[0].polynomial()})
	}
	return nil
}

func (g *GroupBy) accumulate(st *aggState, spec *AggSpec, t *relation.Tuple) error {
	annIsOne := false
	if c, ok := t.Ann.IsConstant(); ok && c == 1 {
		annIsOne = true
	}

	var arg relation.Value
	if spec.Arg != nil {
		var err error
		if mul, ok := spec.Arg.(*Arith); ok && mul.Op == OpMul && annIsOne && (spec.Kind == AggSum || spec.Kind == AggAvg) {
			var fused bool
			if arg, fused, err = g.sumProduct(st, mul, t); fused {
				return nil
			}
		} else {
			arg, err = spec.Arg.Eval(t)
		}
		if err != nil {
			return err
		}
		if arg.IsNull() {
			return nil // SQL aggregates skip NULLs
		}
	}

	switch spec.Kind {
	case AggCount:
		st.count++
		if !annIsOne {
			st.symbolic = true
			st.acc.AddPolynomial(t.Ann)
		} else {
			st.f++ // concrete count mirror, used when group stays concrete
		}
	case AggSum, AggAvg:
		if spec.Arg == nil {
			return fmt.Errorf("engine: %s requires an argument", spec.Kind)
		}
		if !arg.IsNumeric() {
			return fmt.Errorf("engine: %s over non-numeric %s", spec.Kind, arg.Kind())
		}
		st.count++
		if annIsOne && arg.Kind() != relation.KindPoly {
			f, _ := arg.AsFloat()
			st.f += f
			return nil
		}
		// Semimodule path: ann ⊗ value.
		vp, _ := arg.AsPoly()
		st.symbolic = true
		st.acc.AddPolynomial(polynomial.Mul(t.Ann, vp))
	case AggMin, AggMax:
		if spec.Arg == nil {
			return fmt.Errorf("engine: %s requires an argument", spec.Kind)
		}
		if arg.Kind() == relation.KindPoly {
			if _, ok := arg.AsFloat(); !ok {
				return fmt.Errorf("engine: %s over a symbolic value", spec.Kind)
			}
		}
		if !st.haveVal {
			st.best = arg
			st.haveVal = true
			return nil
		}
		c, err := arg.Compare(st.best)
		if err != nil {
			return err
		}
		if (spec.Kind == AggMin && c < 0) || (spec.Kind == AggMax && c > 0) {
			st.best = arg
		}
	}
	return nil
}

// sumProduct evaluates the argument of SUM(x0 * x1 * … * xn) on a row
// annotated 1. When one factor is symbolic and the others concrete — the
// shape of every instrumented revenue query — the row is added here (fused)
// with each coefficient multiplied by the concrete factors in Eval's order,
// and no scaled polynomial is materialized; otherwise the product comes
// back as Eval's value.
func (g *GroupBy) sumProduct(st *aggState, mul *Arith, t *relation.Tuple) (v relation.Value, fused bool, err error) {
	g.scales = g.scales[:0]
	v, err = g.product(mul, t)
	if err != nil || len(g.scales) == 0 {
		return v, false, err
	}
	st.count++
	st.symbolic = true
	for _, m := range v.P().Mons {
		st.acc.Add(g.scaled(m.Coef), m.Terms)
	}
	return relation.Null(), true, nil
}

// product is mul.Eval, except that a symbolic value times concrete ones
// comes back unscaled, the concrete factors waiting in g.scales in the
// order Eval would apply them. They wait only while Eval's intermediate
// values would all be polynomials with every monomial of the symbolic
// operand: once a coefficient reaches 0 (simplify would drop the monomial,
// or demote what is left to a float) they are applied as Eval does.
func (g *GroupBy) product(mul *Arith, t *relation.Tuple) (relation.Value, error) {
	var l relation.Value
	var err error
	if in, ok := mul.L.(*Arith); ok && in.Op == OpMul {
		l, err = g.product(in, t)
	} else {
		l, err = mul.L.Eval(t)
	}
	if err != nil {
		return relation.Null(), err
	}
	l, r, err := mul.right(l, t)
	if err != nil || l.IsNull() {
		g.scales = g.scales[:0]
		return relation.Null(), err
	}
	if lp, rp := l.Kind() == relation.KindPoly, r.Kind() == relation.KindPoly; lp != rp {
		if rp {
			l, r = r, l
		}
		c, _ := r.AsFloat()
		g.scales = append(g.scales, c)
		if c != 0 && g.survives(l.P()) {
			return l, nil
		}
		g.scales = g.scales[:len(g.scales)-1]
	}
	for _, c := range g.scales {
		l, _ = mul.apply(l, relation.Float(c))
	}
	g.scales = g.scales[:0]
	return mul.apply(l, r)
}

// scaled is x times the waiting factors, in order.
func (g *GroupBy) scaled(x float64) float64 {
	for _, c := range g.scales {
		x *= c
	}
	return x
}

// survives reports whether p, not a constant, keeps every monomial under
// the waiting factors.
func (g *GroupBy) survives(p polynomial.Polynomial) bool {
	_, constant := p.IsConstant()
	for _, m := range p.Mons {
		constant = constant || g.scaled(m.Coef) == 0
	}
	return !constant
}

// finalize turns a group's state into the aggregate's value. A symbolic
// sum is its merged monomials plus the concrete contributions, added last.
func finalize(st *aggState, spec *AggSpec) (relation.Value, error) {
	if st.symbolic && st.f != 0 {
		st.acc.Add(st.f, nil)
	}
	switch spec.Kind {
	case AggCount:
		if st.symbolic {
			return simplify(st.acc.Polynomial()), nil
		}
		return relation.Int(st.count), nil
	case AggSum:
		if st.count == 0 {
			return relation.Null(), nil
		}
		if st.symbolic {
			return simplify(st.acc.Polynomial()), nil
		}
		return relation.Float(st.f), nil
	case AggAvg:
		if st.count == 0 {
			return relation.Null(), nil
		}
		if st.symbolic {
			return simplify(polynomial.Scale(st.acc.Polynomial(), 1/float64(st.count))), nil
		}
		return relation.Float(st.f / float64(st.count)), nil
	case AggMin, AggMax:
		if !st.haveVal {
			return relation.Null(), nil
		}
		return st.best, nil
	}
	return relation.Null(), fmt.Errorf("engine: unknown aggregate %d", spec.Kind)
}

func (g *GroupBy) Next() (relation.Tuple, bool, error) {
	if g.pos >= len(g.rows) {
		return relation.Tuple{}, false, nil
	}
	t := g.rows[g.pos]
	g.pos++
	return t, true, nil
}
