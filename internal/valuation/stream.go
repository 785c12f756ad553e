package valuation

import (
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// EvalBatchSource evaluates every polynomial of any SetSource under many
// scenario assignments, streaming shard-at-a-time: each shard is compiled
// to a Program, evaluated (chunking scenarios over up to workers
// goroutines), and released before the next shard loads, so peak memory is
// one shard's program instead of the whole set's. Rows are one result per
// polynomial in set order; because each polynomial evaluates independently
// and shards concatenate in set order, the rows are bit-identical to
// compiling the materialized set and calling EvalBatchN, for every source
// representation and worker count. An in-memory Set presents itself as a
// single shard, so the in-memory streaming path compiles once. A shard's
// program is used for this one batch, so it evaluates every polynomial and
// never builds the index sparse scenarios are answered from.
func EvalBatchSource(src polynomial.SetSource, assignments []*Assignment, workers int) ([][]float64, error) {
	out := make([][]float64, len(assignments))
	for i := range out {
		//cobra:hotalloc one result row per assignment; the rows are the return value
		out[i] = make([]float64, 0, src.Len())
	}
	var rows [][]float64
	err := polynomial.ForEachShardN(src, workers, func(_, _ int, s *polynomial.Set) error {
		prog := Compile(s)
		rows = prog.evalBatch(assignments, rows, workers, false)
		for a := range rows {
			out[a] = append(out[a], rows[a]...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
