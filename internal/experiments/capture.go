package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/sql"
)

// E13CaptureParallel measures the two parts of provenance capture that
// shard over workers against their sequential baselines — cell-level
// instrumentation, and rendering a query result into keys and polynomials —
// and verifies the determinism guarantee: every parallel result (including
// the interning order of a fresh namespace) is bit-identical to the
// sequential one. Query execution is not in the table: the engine has one
// sequential executor. The parallel side uses cfg.Workers when set (> 1),
// else GOMAXPROCS.
func E13CaptureParallel(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	workers := cfg.Workers
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("Parallel provenance capture at %d workers (sequential baseline)", workers),
		Columns: []string{"task", "work", "sequential", "parallel", "speedup", "identical"},
	}

	reps := 3
	if cfg.Quick {
		reps = 1
	}
	bestOf := func(fn func() error) (time.Duration, error) {
		best := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if el := time.Since(t0); el < best {
				best = el
			}
		}
		return best, nil
	}
	speedup := func(seq, par time.Duration) string {
		if par <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(seq)/float64(par))
	}

	// The query behind the rendered result runs at a moderated scale (cf.
	// E9), while instrumentation — a per-row pass — runs at the full
	// configured scale.
	custs := cfg.TelephonyCustomers / 10
	if custs > 10_000 {
		custs = 10_000
	}
	if cfg.Quick && custs > 1_000 {
		custs = 1_000
	}
	if custs < 100 {
		custs = 100
	}

	// 1. Cell-level instrumentation (ParameterizeColumn) of a wide base
	// relation: variable-name derivation and cell multiplication shard
	// across the pool; interning stays sequential in row order.
	{
		rows := cfg.TelephonyCustomers
		base := syntheticMeasurements(rows)
		specs := []provenance.VarSpec{
			{Prefix: "c_", Columns: []string{"Cat"}},
			{Prefix: "r", Columns: []string{"Row"}},
		}
		var seqRel, parRel *relation.Relation
		var seqNames, parNames *polynomial.Names
		seqT, err := bestOf(func() (e error) {
			seqNames = polynomial.NewNames()
			seqRel, e = provenance.ParameterizeColumnN(base, "Val", specs, seqNames, 1)
			return
		})
		if err != nil {
			return nil, err
		}
		parT, err := bestOf(func() (e error) {
			parNames = polynomial.NewNames()
			parRel, e = provenance.ParameterizeColumnN(base, "Val", specs, parNames, workers)
			return
		})
		if err != nil {
			return nil, err
		}
		identical := sameNames(seqNames, parNames) && sameInstrumented(seqRel, parRel)
		t.AddRow("instrument (cell level)", fmt.Sprintf("%d rows", rows),
			seqT, parT, speedup(seqT, parT), yesNo(identical))
	}

	// 2. Rendering the result of the running example's revenue query over
	// instrumented prices into keys and polynomials. The query itself runs
	// once, outside the clock: the engine has one sequential executor, and
	// rendering is the part of a capture that Workers shards.
	{
		names := polynomial.NewNames()
		cat, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: custs}), names)
		if err != nil {
			return nil, err
		}
		out, err := sql.Run(telephony.RevenueQuery, cat)
		if err != nil {
			return nil, err
		}
		var seqSet, parSet *polynomial.Set
		seqT, err := bestOf(func() (e error) {
			seqSet, e = provenance.FromRelationN(out, names, "revenue", 1)
			return
		})
		if err != nil {
			return nil, err
		}
		parT, err := bestOf(func() (e error) {
			parSet, e = provenance.FromRelationN(out, names, "revenue", workers)
			return
		})
		if err != nil {
			return nil, err
		}
		t.AddRow("capture (render only)", fmt.Sprintf("%d customers, %d groups", custs, seqSet.Len()),
			seqT, parT, speedup(seqT, parT), yesNo(samePolySet(seqSet, parSet)))
	}

	t.Note("identical = parallel capture output (sets, polynomials and variable interning order) is bit-identical to the sequential baseline")
	t.Elapsed = time.Since(start)
	return t, nil
}

// syntheticMeasurements builds a base relation for the instrumentation
// benchmark: rows cycling through a few categories with numeric values and
// sporadic NULLs.
func syntheticMeasurements(rows int) *relation.Relation {
	rel := relation.NewRelation("m", relation.NewSchema(
		relation.Column{Name: "Cat", Kind: relation.KindString},
		relation.Column{Name: "Row", Kind: relation.KindInt},
		relation.Column{Name: "Val", Kind: relation.KindFloat},
	))
	cats := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i := 0; i < rows; i++ {
		val := relation.Float(float64(i%1000) * 1.25)
		if i%101 == 0 {
			val = relation.Null()
		}
		rel.Append(relation.Str(cats[i%len(cats)]), relation.Int(int64(i)), val)
	}
	return rel
}

// samePolySet compares two polynomial sets for exact equality (keys, order
// and polynomials).
func samePolySet(a, b *polynomial.Set) bool {
	if a == nil || b == nil || a.Len() != b.Len() {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || !polynomial.Equal(a.Polys[i], b.Polys[i]) {
			return false
		}
	}
	return true
}

// sameNames compares two namespaces' interning order.
func sameNames(a, b *polynomial.Names) bool {
	if a.Len() != b.Len() {
		return false
	}
	av, bv := a.All(), b.All()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// sameInstrumented compares two instrumented relations cell by cell.
func sameInstrumented(a, b *relation.Relation) bool {
	if a == nil || b == nil || len(a.Rows) != len(b.Rows) {
		return false
	}
	for ri := range a.Rows {
		av, bv := a.Rows[ri].Values, b.Rows[ri].Values
		if len(av) != len(bv) {
			return false
		}
		for ci := range av {
			if av[ci].Kind != bv[ci].Kind {
				return false
			}
			if av[ci].Kind == relation.KindPoly && !polynomial.Equal(av[ci].P, bv[ci].P) {
				return false
			}
		}
	}
	return true
}
