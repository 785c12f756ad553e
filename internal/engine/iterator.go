package engine

import (
	"sort"

	"github.com/cobra-prov/cobra/internal/relation"
)

// Iterator is the Volcano-style operator interface. Next returns the next
// tuple and true, or a zero tuple and false at end of stream.
//
// Row-validity contract: the Values slice of a returned tuple is valid
// only until the next Next or Close call on the same iterator — operators
// are free to reuse their output row buffer. A consumer that buffers
// tuples across pulls (Sort, a join's build side, Collect, a capture
// batch) must copy the Values it keeps. Annotations are immutable
// polynomials and may always be retained without copying.
type Iterator interface {
	Schema() *relation.Schema
	Open() error
	Next() (relation.Tuple, bool, error)
	Close() error
}

// Catalog names the base relations available to queries.
type Catalog map[string]*relation.Relation

// Collect drains an iterator into a materialized relation. The iterator is
// always closed; a Close error is reported even when the drain itself
// succeeded (the Next error wins when both fail).
func Collect(name string, it Iterator) (*relation.Relation, error) {
	// Values are copied out of the operators' reused row buffers
	// (row-validity contract) into slabs carved in chunks — the copies are
	// the materialized result itself.
	var rows []relation.Tuple
	var slab []relation.Value
	err := Stream(it, func(t relation.Tuple) error {
		n := len(t.Values)
		if len(slab) < n {
			slab = make([]relation.Value, max(8192, n))
		}
		vals := slab[:n:n]
		slab = slab[n:]
		copy(vals, t.Values)
		rows = append(rows, relation.Tuple{Values: vals, Ann: t.Ann})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := relation.NewRelation(name, it.Schema())
	out.Rows = rows
	return out, nil
}

// Scan iterates a materialized relation, optionally re-qualifying its
// schema under an alias and emitting only the rows a predicate admits.
type Scan struct {
	rel    *relation.Relation
	schema *relation.Schema
	where  Expr      // nil admits every row
	test   predicate // where, compiled
	pos    int
}

// NewScan creates a scan; alias qualifies column names ("" keeps the
// relation's own name as qualifier).
func NewScan(rel *relation.Relation, alias string) *Scan {
	if alias == "" {
		alias = rel.Name
	}
	return &Scan{rel: rel, schema: rel.Schema.WithQualifier(alias)}
}

// Where makes the scan emit only the rows pred admits, testing it,
// compiled, on each row as the scan reads it.
func (s *Scan) Where(pred Expr) {
	s.where, s.test = pred, compilePredicate(pred)
}

func (s *Scan) Schema() *relation.Schema { return s.schema }
func (s *Scan) Open() error              { s.pos = 0; return nil }
func (s *Scan) Close() error             { return nil }

func (s *Scan) Next() (relation.Tuple, bool, error) {
	for s.pos < len(s.rel.Rows) {
		t := &s.rel.Rows[s.pos]
		s.pos++
		if s.test == nil {
			return *t, true, nil
		}
		if pass, err := s.test(t.Values); pass || err != nil {
			return *t, pass, err
		}
	}
	return relation.Tuple{}, false, nil
}

// Filter passes tuples whose predicate evaluates to TRUE; annotations pass
// through unchanged (selection is annotation-preserving in the semiring
// model). The planner uses it only above a join and for HAVING: a table's
// own conjuncts are tested by its Scan.
type Filter struct {
	in   Iterator
	pred Expr
	test predicate // pred, compiled
}

// NewFilter wraps in with a predicate.
func NewFilter(in Iterator, pred Expr) *Filter {
	return &Filter{in: in, pred: pred, test: compilePredicate(pred)}
}

func (f *Filter) Schema() *relation.Schema { return f.in.Schema() }
func (f *Filter) Open() error              { return f.in.Open() }
func (f *Filter) Close() error             { return f.in.Close() }

func (f *Filter) Next() (relation.Tuple, bool, error) {
	for {
		t, ok, err := f.in.Next()
		if err != nil || !ok {
			return relation.Tuple{}, false, err
		}
		if pass, err := f.test(t.Values); pass || err != nil {
			return t, pass, err
		}
	}
}

// Projection is one output column of a Project.
type Projection struct {
	Expr Expr
	Name string
}

// Project computes output columns; annotations pass through.
type Project struct {
	in     Iterator
	projs  []Projection
	schema *relation.Schema

	rowBuf []relation.Value // reused output row (row-validity contract)
	cur    relation.Tuple   // Eval input; a field so the tuple escapes once, not per row
}

// NewProject builds a projection node.
func NewProject(in Iterator, projs []Projection) *Project {
	cols := make([]relation.Column, len(projs))
	for i, p := range projs {
		cols[i] = relation.Column{Name: p.Name}
	}
	return &Project{in: in, projs: projs, schema: relation.NewSchema(cols...)}
}

func (p *Project) Schema() *relation.Schema { return p.schema }
func (p *Project) Open() error              { return p.in.Open() }
func (p *Project) Close() error             { return p.in.Close() }

func (p *Project) Next() (relation.Tuple, bool, error) {
	t, ok, err := p.in.Next()
	if err != nil || !ok {
		return relation.Tuple{}, false, err
	}
	// The output row buffer is reused across pulls (row-validity
	// contract): projecting a row allocates nothing after the first call.
	n := len(p.projs)
	if cap(p.rowBuf) < n {
		p.rowBuf = make([]relation.Value, n)
	}
	out := relation.Tuple{Values: p.rowBuf[:n:n], Ann: t.Ann}
	p.cur = t
	for i, pr := range p.projs {
		v, err := pr.Expr.Eval(&p.cur)
		if err != nil {
			return relation.Tuple{}, false, err
		}
		out.Values[i] = v
	}
	return out, true, nil
}

// Limit stops after n tuples.
type Limit struct {
	in   Iterator
	n    int
	seen int
}

// NewLimit wraps in with a row limit.
func NewLimit(in Iterator, n int) *Limit { return &Limit{in: in, n: n} }

func (l *Limit) Schema() *relation.Schema { return l.in.Schema() }
func (l *Limit) Open() error              { l.seen = 0; return l.in.Open() }
func (l *Limit) Close() error             { return l.in.Close() }

func (l *Limit) Next() (relation.Tuple, bool, error) {
	if l.seen >= l.n {
		return relation.Tuple{}, false, nil
	}
	t, ok, err := l.in.Next()
	if err != nil || !ok {
		return relation.Tuple{}, false, err
	}
	l.seen++
	return t, true, nil
}

// SortKey orders by an expression, ascending or descending.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materializes its input and emits it ordered by the keys.
type Sort struct {
	in   Iterator
	keys []SortKey
	rows []relation.Tuple
	pos  int
}

// NewSort builds a sort node.
func NewSort(in Iterator, keys []SortKey) *Sort { return &Sort{in: in, keys: keys} }

func (s *Sort) Schema() *relation.Schema { return s.in.Schema() }
func (s *Sort) Close() error             { s.rows = nil; return s.in.Close() }

func (s *Sort) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	if err := s.build(); err != nil {
		s.in.Close() // the drain error is the primary failure
		return err
	}
	return nil
}

// build drains the (already opened) input and sorts it.
func (s *Sort) build() error {
	s.rows = s.rows[:0]
	s.pos = 0
	// Key values and retained row values are appended to flat backing
	// arrays (a per-row []Value would be one allocation per input row)
	// and sliced into per-row windows only after draining, when append
	// can no longer move the backings. Row values must be copied: the
	// input's buffer is only valid until the next pull (row-validity
	// contract).
	var rows []relation.Tuple
	var flat []relation.Value
	var vals []relation.Value
	var valOff []int
	// t is hoisted out of the loop: Eval takes its address through an
	// interface, and a loop-local tuple would escape once per row.
	var t relation.Tuple
	var ok bool
	var err error
	for {
		t, ok, err = s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, k := range s.keys {
			v, err := k.Expr.Eval(&t)
			if err != nil {
				return err
			}
			flat = append(flat, v)
		}
		valOff = append(valOff, len(vals))
		vals = append(vals, t.Values...)
		rows = append(rows, relation.Tuple{Ann: t.Ann})
	}
	valOff = append(valOff, len(vals))
	for i := range rows {
		lo, hi := valOff[i], valOff[i+1]
		rows[i].Values = vals[lo:hi:hi]
	}
	nk := len(s.keys)
	keyVals := make([][]relation.Value, len(rows))
	for i := range keyVals {
		keyVals[i] = flat[i*nk : (i+1)*nk]
	}
	sorted, err := sortByKeys(rows, keyVals, s.keys)
	if err != nil {
		return err
	}
	s.rows = append(s.rows, sorted...)
	return nil
}

// sortByKeys stably sorts rows by their pre-evaluated key values,
// permuting an index vector so tuples are moved only once; the first
// comparison error is reported.
func sortByKeys(rows []relation.Tuple, keyVals [][]relation.Value, keys []SortKey) ([]relation.Tuple, error) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		for k := range keys {
			c, err := keyVals[i][k].Compare(keyVals[j][k])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c == 0 {
				continue
			}
			if keys[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := make([]relation.Tuple, len(rows))
	for p, i := range idx {
		out[p] = rows[i]
	}
	return out, nil
}

func (s *Sort) Next() (relation.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return relation.Tuple{}, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}
