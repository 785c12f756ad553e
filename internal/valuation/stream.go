package valuation

import (
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// EvalBatchSource evaluates every polynomial of any SetSource under many
// scenario assignments, streaming shard-at-a-time: each shard is evaluated
// (chunking scenarios over up to workers goroutines) and released before
// the next one loads, so peak memory is one shard instead of the whole
// set. A source that hands its shards over packed
// (polynomial.PackedShards: a ShardedSet, an IndexedSet, a PackedSet, each
// also behind WithContext) is evaluated straight from those slabs — a
// Program's slabs are a PackedSet's, so one Program is bound to shard after
// shard and a pass builds no *Set and copies nothing, only re-reads each
// shard's monomial offsets to pick its kernel (one shard may have one term
// per monomial, the next a mix); any other source has each shard packed
// first, and fails with PackSet's error. Rows
// are one result per polynomial in set order; because each polynomial
// evaluates independently and shards concatenate in set order, the rows
// are bit-identical to compiling the materialized set and calling
// EvalBatchN, for every source representation and worker count. A shard's
// program is used for this one batch, so it evaluates every polynomial and
// never builds the index sparse scenarios are answered from: every
// scenario is a full pass, and two or more run in blocks of four over each
// shard, as EvalBatchN's full passes do.
func EvalBatchSource(src polynomial.SetSource, assignments []*Assignment, workers int) ([][]float64, error) {
	out := make([][]float64, len(assignments))
	for i := range out {
		out[i] = make([]float64, 0, src.Len())
	}
	names := src.Namespace()
	prog := &Program{names: names, numVars: names.Len()}
	var rows [][]float64
	eval := func(_, _ int, ps *polynomial.PackedSet) error {
		prog.bind(ps) // valid until ps changes, which is after eval returns
		rows = prog.evalBatch(assignments, rows, workers, false)
		for a := range rows {
			out[a] = append(out[a], rows[a]...)
		}
		return nil
	}
	var err error
	if packed, ok := polynomial.PackedShards(src); ok {
		err = packed.ForEachPackedShard(eval)
	} else {
		err = polynomial.ForEachShardN(src, workers, func(i, firstPoly int, s *polynomial.Set) error {
			ps, err := polynomial.PackSet(s)
			if err != nil {
				return err
			}
			return eval(i, firstPoly, ps)
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
