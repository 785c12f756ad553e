// Package provenance instruments base data with symbolic variables and
// captures provenance polynomials from query results ("instrument the data
// with symbolic variables, either at the cell or tuple level", §1 of the
// paper). It also implements the commutation check: applying a valuation to
// captured provenance must equal re-executing the query on correspondingly
// modified data — the correctness guarantee that makes provenance-based
// hypothetical reasoning sound.
package provenance

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/sql"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// VarSpec derives one provenance variable per row from a prefix and the
// row's values in the given columns: Prefix + values joined by "_". For the
// running example, {Prefix: "p_", Columns: ["Plan"]} and {Prefix: "m",
// Columns: ["Mo"]} turn the price cell 0.4 of (A, month 1) into the
// symbolic cell 0.4·p_A·m1.
type VarSpec struct {
	Prefix  string
	Columns []string
}

// VarName builds the variable name for a row (sanitized to the polynomial
// identifier alphabet). A leading digit/dot/colon in the assembled name is
// guarded with "_" so the name parses as an identifier.
func (s VarSpec) VarName(rel *relation.Relation, row relation.Tuple) (string, error) {
	b, err := s.AppendVarName(nil, rel, row)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendVarName appends VarName's rendering to dst — the allocation-free
// form used by instrumentation loops over whole columns. The bytes
// appended are exactly VarName's result.
func (s VarSpec) AppendVarName(dst []byte, rel *relation.Relation, row relation.Tuple) ([]byte, error) {
	start := len(dst)
	dst = append(dst, s.Prefix...)
	for i, col := range s.Columns {
		idx, err := rel.Schema.Index(col)
		if err != nil {
			return dst[:start], err
		}
		if i > 0 {
			dst = append(dst, '_')
		}
		off := len(dst)
		dst = row.Values[idx].AppendString(dst)
		if len(dst) == off {
			// sanitize("") is "_".
			dst = append(dst, '_')
			continue
		}
		// Sanitize the rendered value in place: everything outside the
		// identifier alphabet (letters, digits, '_', '.', ':') becomes '_'.
		for j := off; j < len(dst); j++ {
			c := dst[j]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == ':') {
				dst[j] = '_'
			}
		}
	}
	if len(dst) == start {
		return append(dst, '_'), nil
	}
	if c := dst[start]; c >= '0' && c <= '9' || c == '.' || c == ':' {
		dst = append(dst, 0)
		copy(dst[start+1:], dst[start:])
		dst[start] = '_'
	}
	return dst, nil
}

// ParameterizeColumn returns a copy of rel in which every cell of the target
// column is multiplied by the product of the variables derived from specs —
// cell-level instrumentation. The target column must be numeric.
func ParameterizeColumn(rel *relation.Relation, target string, specs []VarSpec, names *polynomial.Names) (*relation.Relation, error) {
	idx, err := rel.Schema.Index(target)
	if err != nil {
		return nil, err
	}
	out := rel.Clone()
	// Cell polynomials are built directly into column-wide slabs: one term
	// vector and one monomial array shared by every cell, so instrumenting
	// a row is allocation-free (the old per-cell Mono/New/Mul chain was
	// the bulk of E8's allocation profile). The result is value-identical
	// to Mul(base, New(Mono(1, terms...))): a single canonical monomial
	// with the cell's constant as coefficient.
	termSlab := make([]polynomial.Term, 0, len(out.Rows)*len(specs))
	monSlab := make([]polynomial.Monomial, 0, len(out.Rows))
	var nameBuf []byte
	for ri := range out.Rows {
		row := &out.Rows[ri]
		v := row.Values[idx]
		if v.IsNull() {
			continue
		}
		c, concrete := v.AsFloat()
		if !concrete && v.Kind() != relation.KindPoly {
			return nil, fmt.Errorf("provenance: column %q of %s is not numeric (%s)", target, rel.Name, v.Kind())
		}
		toff := len(termSlab)
		for si := range specs {
			b, err := specs[si].AppendVarName(nameBuf[:0], out, *row)
			if err != nil {
				return nil, err
			}
			nameBuf = b
			termSlab = append(termSlab, polynomial.T(names.VarBytes(b)))
		}
		terms := termSlab[toff:len(termSlab):len(termSlab)]
		if !concrete {
			// Symbolic cell: general polynomial product.
			row.Values[idx] = relation.Poly(polynomial.Mul(v.P(), polynomial.New(polynomial.MonoIn(1, terms))))
			continue
		}
		if c == 0 {
			row.Values[idx] = relation.Poly(polynomial.Polynomial{})
			continue
		}
		moff := len(monSlab)
		monSlab = append(monSlab, polynomial.MonoIn(c, terms))
		row.Values[idx] = relation.Poly(polynomial.Polynomial{Mons: monSlab[moff : moff+1 : moff+1]})
	}
	return out, nil
}

// cloneRelationN deep-copies a relation, sharding the row copies; each
// shard copies its rows' values into one flat slab (see Relation.Clone).
func cloneRelationN(rel *relation.Relation, workers int) *relation.Relation {
	out := &relation.Relation{Name: rel.Name, Schema: rel.Schema, Rows: make([]relation.Tuple, len(rel.Rows))}
	parallel.Chunks(workers, len(rel.Rows), func(_, lo, hi int) {
		total := 0
		for i := lo; i < hi; i++ {
			total += len(rel.Rows[i].Values)
		}
		vals := make([]relation.Value, 0, total)
		for i := lo; i < hi; i++ {
			t := rel.Rows[i]
			off := len(vals)
			vals = append(vals, t.Values...)
			out.Rows[i] = relation.Tuple{Values: vals[off:len(vals):len(vals)], Ann: t.Ann}
		}
	})
	return out
}

// AnnotateTuples returns a copy of rel in which every tuple's annotation is
// a fresh variable derived from spec — tuple-level instrumentation in the
// N[X] semiring.
func AnnotateTuples(rel *relation.Relation, spec VarSpec, names *polynomial.Names) (*relation.Relation, error) {
	out := rel.Clone()
	// Annotation polynomials are carved from relation-wide slabs: each row's
	// annotation is VarPoly(v), i.e. one monomial 1·v, so the whole column of
	// annotations needs just two allocations.
	n := len(out.Rows)
	monSlab := make([]polynomial.Monomial, n)
	termSlab := make([]polynomial.Term, n)
	var nameBuf []byte
	for ri := range out.Rows {
		b, err := spec.AppendVarName(nameBuf[:0], out, out.Rows[ri])
		if err != nil {
			return nil, err
		}
		nameBuf = b
		termSlab[ri] = polynomial.T(names.VarBytes(b))
		monSlab[ri] = polynomial.Monomial{Coef: 1, Terms: termSlab[ri : ri+1 : ri+1]}
		out.Rows[ri].Ann = polynomial.Polynomial{Mons: monSlab[ri : ri+1 : ri+1]}
	}
	return out, nil
}

// AnnotateTuplesN is AnnotateTuples using up to workers goroutines for the
// clone and the variable-name derivation; interning stays sequential in row
// order, so the instrumented relation is bit-identical to the sequential
// path for any worker count.
func AnnotateTuplesN(rel *relation.Relation, spec VarSpec, names *polynomial.Names, workers int) (*relation.Relation, error) {
	if parallel.Normalize(workers) <= 1 {
		return AnnotateTuples(rel, spec, names)
	}
	out := cloneRelationN(rel, workers)
	n := len(out.Rows)
	// Names render into per-shard byte slabs (windows in nameBytes; an
	// append that moves a slab leaves earlier windows pointing into the old
	// backing, which is never rewritten). Interning and annotation stay
	// sequential, carving from the same slabs AnnotateTuples uses.
	nameBytes := make([][]byte, n)
	errs := make([]parallel.RowErr, parallel.Normalize(workers))
	parallel.Chunks(workers, n, func(shard, lo, hi int) {
		var slab []byte
		for ri := lo; ri < hi; ri++ {
			off := len(slab)
			b, err := spec.AppendVarName(slab, out, out.Rows[ri])
			if err != nil {
				errs[shard] = parallel.RowErr{Err: err, Row: ri}
				return
			}
			slab = b
			nameBytes[ri] = slab[off:len(slab):len(slab)]
		}
	})
	firstBad := parallel.FirstRowErr(errs)
	limit := n
	if firstBad.Err != nil {
		limit = firstBad.Row
	}
	monSlab := make([]polynomial.Monomial, limit)
	termSlab := make([]polynomial.Term, limit)
	for ri := 0; ri < limit; ri++ {
		termSlab[ri] = polynomial.T(names.VarBytes(nameBytes[ri]))
		monSlab[ri] = polynomial.Monomial{Coef: 1, Terms: termSlab[ri : ri+1 : ri+1]}
		out.Rows[ri].Ann = polynomial.Polynomial{Mons: monSlab[ri : ri+1 : ri+1]}
	}
	if firstBad.Err != nil {
		return nil, firstBad.Err
	}
	return out, nil
}

// Capture runs a SQL query over the catalog and extracts its provenance
// polynomials: one polynomial per output row, read from valueCol (or, if
// valueCol is empty, the unique symbolic column); the group key is the
// concatenation of the remaining column values. The returned Set shares
// names.
func Capture(query string, cat engine.Catalog, names *polynomial.Names, valueCol string) (*polynomial.Set, error) {
	return CaptureN(query, cat, names, valueCol, 1)
}

// CaptureN is Capture rendering the result rows (group keys, polynomial
// extraction) across up to workers goroutines (FromRelationN). The query
// itself runs on the engine's one sequential executor, so the captured set
// is bit-identical for any worker count.
func CaptureN(query string, cat engine.Catalog, names *polynomial.Names, valueCol string, workers int) (*polynomial.Set, error) {
	out, err := sql.Run(query, cat)
	if err != nil {
		return nil, err
	}
	return FromRelationN(out, names, valueCol, workers)
}

// FromRelation extracts a polynomial Set from a materialized query result.
func FromRelation(out *relation.Relation, names *polynomial.Names, valueCol string) (*polynomial.Set, error) {
	return FromRelationN(out, names, valueCol, 1)
}

// FromRelationN is FromRelation sharding the per-row group-key rendering
// and polynomial extraction over up to workers goroutines; the set is
// assembled sequentially in row order, so it is identical to FromRelation's.
func FromRelationN(out *relation.Relation, names *polynomial.Names, valueCol string, workers int) (*polynomial.Set, error) {
	valIdx, err := resolveValueCol(out, valueCol)
	if err != nil {
		return nil, err
	}
	return renderSet(out.Rows, names, workers, valIdx, captureRow)
}

// renderSet collects sinkRows' output in a fresh Set. sinkRows renders
// across the pool and commits in row order, and the partially filled set
// is discarded on error, so the observable behavior is the same for every
// worker count.
func renderSet(rows []relation.Tuple, names *polynomial.Names, workers, valIdx int, render rowRenderer) (*polynomial.Set, error) {
	set := polynomial.NewSet(names)
	if err := sinkRows(rows, workers, valIdx, render, set); err != nil {
		return nil, err
	}
	return set, nil
}

// resolveValueCol finds the polynomial column: by name if given, otherwise
// the unique symbolic column.
func resolveValueCol(out *relation.Relation, valueCol string) (int, error) {
	return resolveValueColIn(out.Schema, out.Rows, valueCol)
}

// resolveValueColIn is resolveValueCol over an explicit schema and row
// sample — shared with the streaming capture path, which resolves from
// its first buffered batch instead of a materialized relation.
func resolveValueColIn(schema *relation.Schema, rows []relation.Tuple, valueCol string) (int, error) {
	if valueCol != "" {
		return schema.Index(valueCol)
	}
	valIdx := -1
	for i := range schema.Cols {
		isPoly := false
		for _, row := range rows {
			if row.Values[i].Kind() == relation.KindPoly {
				isPoly = true
				break
			}
		}
		if isPoly {
			if valIdx >= 0 {
				return 0, fmt.Errorf("provenance: multiple symbolic columns; specify one")
			}
			valIdx = i
		}
	}
	if valIdx < 0 {
		return 0, fmt.Errorf("provenance: no symbolic column in result")
	}
	return valIdx, nil
}

// captureRow renders one result row into its group key (the non-value
// column values joined by "|", appended to buf) and its provenance
// polynomial. The returned bytes alias buf; the caller materializes the
// key string only when handing it to a sink that retains it.
func captureRow(row relation.Tuple, valIdx int, buf []byte) ([]byte, polynomial.Polynomial, error) {
	first := true
	for i, v := range row.Values {
		if i == valIdx {
			continue
		}
		if !first {
			buf = append(buf, '|')
		}
		first = false
		buf = v.AppendString(buf)
	}
	p, ok := row.Values[valIdx].AsPoly()
	if !ok {
		return buf, polynomial.Polynomial{}, fmt.Errorf("provenance: value column holds non-numeric %s", row.Values[valIdx].Kind())
	}
	return buf, p, nil
}

// Concretize evaluates every symbolic cell of every relation under the
// assignment, yielding a concrete catalog — "replacing the variables with
// the corresponding values in the input" so the query can be re-executed.
// Tuple-level annotations are left untouched.
func Concretize(cat engine.Catalog, a *valuation.Assignment) engine.Catalog {
	out := make(engine.Catalog, len(cat))
	//cobra:deterministic map-to-map transform keyed by relation name; visit order cannot reach the result
	for name, rel := range cat {
		c := rel.Clone()
		for ri := range c.Rows {
			for vi, v := range c.Rows[ri].Values {
				if v.Kind() == relation.KindPoly {
					c.Rows[ri].Values[vi] = relation.Float(v.P().Eval(a.Get))
				}
			}
		}
		out[name] = c
	}
	return out
}

// CommutationReport compares the two sides of the commutation square.
type CommutationReport struct {
	Groups   int
	Accuracy valuation.Accuracy
	// MissingGroups counts result groups present on one side only (should
	// be zero for the multiplicative instrumentation used here).
	MissingGroups int
}

// Ok reports commutation within eps relative error.
func (r CommutationReport) Ok(eps float64) bool {
	return r.MissingGroups == 0 && r.Accuracy.Exact(eps)
}

// CheckCommutation verifies the paper's correctness guarantee on a concrete
// instance: evaluating the captured provenance under the assignment equals
// re-running the query over the concretized database.
func CheckCommutation(query string, cat engine.Catalog, names *polynomial.Names, valueCol string, a *valuation.Assignment) (CommutationReport, error) {
	symOut, err := sql.Run(query, cat)
	if err != nil {
		return CommutationReport{}, err
	}
	valIdx, err := resolveValueCol(symOut, valueCol)
	if err != nil {
		return CommutationReport{}, err
	}
	set, err := renderSet(symOut.Rows, names, 1, valIdx, captureRow)
	if err != nil {
		return CommutationReport{}, err
	}
	polySide := make(map[string]float64, set.Len())
	for i, key := range set.Keys {
		polySide[key] = set.Polys[i].Eval(a.Get)
	}

	rerun, err := sql.Run(query, Concretize(cat, a))
	if err != nil {
		return CommutationReport{}, err
	}
	// After concretization the value column is numeric; extract positionally.
	rerunSet, err := renderSet(rerun.Rows, names, 1, valIdx, captureRow)
	if err != nil {
		return CommutationReport{}, err
	}

	report := CommutationReport{Groups: len(polySide)}
	var full, comp []float64
	seen := make(map[string]bool)
	for i, key := range rerunSet.Keys {
		c, ok := rerunSet.Polys[i].IsConstant()
		if !ok {
			return report, fmt.Errorf("provenance: re-run result still symbolic for group %q", key)
		}
		pv, exists := polySide[key]
		if !exists {
			report.MissingGroups++
			continue
		}
		seen[key] = true
		full = append(full, c)
		comp = append(comp, pv)
	}
	//cobra:deterministic order-insensitive count of unmatched groups
	for key := range polySide {
		if !seen[key] {
			report.MissingGroups++
		}
	}
	report.Accuracy, err = valuation.CompareResults(full, comp)
	return report, err
}
