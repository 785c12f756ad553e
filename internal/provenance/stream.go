// Streaming (non-materializing) provenance capture: the query executes
// through the engine's Volcano pull loop and every captured polynomial is
// handed to a polynomial.SetSink the moment its row is produced, so the
// result relation — and the full provenance set — never materialize.
// Feeding a ShardBuilder bounds peak residency by its MaxResidentMonomials
// budget even when the captured provenance is far larger.

package provenance

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/sql"
)

// captureBatchRows bounds the result tuples the streaming capture buffers
// at a time: batches of up to this many rows are rendered (group keys,
// polynomial extraction) across the worker pool and fed to the sink in row
// order. It is the only result-side buffering the streaming path does —
// peak extra memory is one batch of tuples, independent of the result
// size.
const captureBatchRows = 4096

// CaptureStream runs a SQL query over the catalog and streams its
// provenance polynomials into sink row-at-a-time — the non-materializing
// counterpart of Capture. The sink must share the namespace the catalog
// was instrumented under. Keys, polynomials and their order are exactly
// Capture's for every worker count: the plan executes through the same
// sequential Volcano schedule sql.Run collects, rendering within a batch
// shards over up to workers goroutines, and sink.Add is called
// sequentially in row order —
// so variables reach the sink in the same order the materialized path
// interns them, and a spilling sink builds the identical ShardedSet.
//
// If valueCol is empty, the symbolic column is resolved from the first
// buffered batch (up to captureBatchRows rows); a result whose symbolic
// column is NULL-or-numeric for the entire first batch needs an explicit
// valueCol, where Capture would have scanned the whole materialized
// result. Ambiguity is still detected across the whole stream: a second
// symbolic column appearing in any later batch fails with the same
// "multiple symbolic columns" error Capture reports. On error the sink
// may have received a prefix of the rows; callers building a ShardedSet
// should discard the partial builder.
func CaptureStream(query string, cat engine.Catalog, valueCol string, sink polynomial.SetSink, workers int) error {
	it, err := sql.Open(query, cat)
	if err != nil {
		return err
	}
	valIdx := -1
	inferred := valueCol == ""
	if !inferred {
		if valIdx, err = it.Schema().Index(valueCol); err != nil {
			return err
		}
	}
	sawRows := false
	batch := make([]relation.Tuple, 0, captureBatchRows)
	// Streamed tuples are valid only until the callback returns (the
	// engine's row-validity contract), so buffered rows copy their values
	// into a slab reused across batches — after the first batch, buffering
	// a row allocates nothing.
	var batchVals []relation.Value
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if valIdx < 0 {
			idx, rerr := resolveValueColIn(it.Schema(), batch, "")
			if rerr != nil {
				return rerr
			}
			valIdx = idx
		} else if inferred {
			// The column was inferred from an earlier batch: a symbolic
			// value in any other column now would have made the
			// materialized resolver refuse — refuse here too.
			for _, row := range batch {
				for i, v := range row.Values {
					if i != valIdx && v.Kind() == relation.KindPoly {
						return fmt.Errorf("provenance: multiple symbolic columns; specify one")
					}
				}
			}
		}
		ferr := sinkRows(batch, workers, valIdx, captureRow, sink)
		batch = batch[:0]
		batchVals = batchVals[:0]
		return ferr
	}
	err = engine.Stream(it, func(t relation.Tuple) error {
		sawRows = true
		if batchVals == nil {
			batchVals = make([]relation.Value, 0, captureBatchRows*len(t.Values))
		}
		off := len(batchVals)
		batchVals = append(batchVals, t.Values...)
		t.Values = batchVals[off:len(batchVals):len(batchVals)]
		batch = append(batch, t)
		if len(batch) >= captureBatchRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if valIdx < 0 && !sawRows {
		// Zero result rows and no explicit column: report the same error
		// the materialized resolver does.
		_, err := resolveValueColIn(it.Schema(), nil, "")
		return err
	}
	return nil
}

// lineageRow renders one output row into its lineage key (all column
// values joined by "|", appended to buf) and annotation; valIdx is
// unused (lineage keys span every column).
func lineageRow(row relation.Tuple, _ int, buf []byte) ([]byte, polynomial.Polynomial, error) {
	for i, v := range row.Values {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = v.AppendString(buf)
	}
	return buf, row.Ann, nil
}

// A rowRenderer appends one row's key to buf and returns it with the row's
// polynomial: captureRow (value provenance) or lineageRow.
type rowRenderer func(row relation.Tuple, valIdx int, buf []byte) ([]byte, polynomial.Polynomial, error)

// sinkRows renders a batch of rows into (key, polynomial) pairs across up
// to workers goroutines and feeds them to sink sequentially in row order,
// stopping at the first failing row in row order — so the sequence of Add
// calls (and therefore any sink state, including a ShardBuilder's shard
// boundaries and spill schedule) is bit-identical for every worker count.
// Renderers append key bytes to a per-worker scratch buffer reused across
// the batch's rows; only the retained key string is allocated per row.
func sinkRows(rows []relation.Tuple, workers int, valIdx int, render rowRenderer, sink polynomial.SetSink) error {
	if parallel.Normalize(workers) <= 1 {
		var buf []byte
		for _, row := range rows {
			b, p, err := render(row, valIdx, buf[:0])
			if err != nil {
				return err
			}
			buf = b
			if err := sink.Add(string(b), p); err != nil {
				return err
			}
		}
		return nil
	}
	n := len(rows)
	keys := make([]string, n)
	polys := make([]polynomial.Polynomial, n)
	errs := make([]parallel.RowErr, parallel.Normalize(workers))
	parallel.Chunks(workers, n, func(shard, lo, hi int) {
		var buf []byte
		for ri := lo; ri < hi; ri++ {
			b, p, err := render(rows[ri], valIdx, buf[:0])
			if err != nil {
				errs[shard] = parallel.RowErr{Err: err, Row: ri}
				return
			}
			buf = b
			keys[ri], polys[ri] = string(b), p
		}
	})
	bad := parallel.FirstRowErr(errs)
	limit := n
	if bad.Err != nil {
		limit = bad.Row
	}
	for ri := 0; ri < limit; ri++ {
		if err := sink.Add(keys[ri], polys[ri]); err != nil {
			return err
		}
	}
	return bad.Err
}
