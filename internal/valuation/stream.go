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
// also behind WithContext) is evaluated straight from those slabs — they
// are in a Program's layout, so one Program is re-pointed at shard after
// shard and a pass builds no *Set, compiles nothing and copies nothing,
// only re-reads each shard's monomial offsets to pick its kernel (one
// shard may have one term per monomial, the next a mix); any other source
// has each shard compiled to a Program of its own. Rows
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
	var rows [][]float64
	eval := func(prog *Program) {
		rows = prog.evalBatch(assignments, rows, workers, false)
		for a := range rows {
			out[a] = append(out[a], rows[a]...)
		}
	}
	var err error
	if packed, ok := polynomial.PackedShards(src); ok {
		names := src.Namespace()
		prog := &Program{names: names, numVars: names.Len()}
		err = packed.ForEachPackedShard(func(_, _ int, ps *polynomial.PackedSet) error {
			// What Compile builds, with nothing copied; valid until ps changes.
			prog.polyOff, prog.coefs, prog.monOff = ps.PolyOff(), ps.Coefs(), ps.MonOff()
			prog.tVars, prog.tExps = ps.Vars(), ps.Exps()
			prog.setArity()
			eval(prog)
			return nil
		})
	} else {
		err = polynomial.ForEachShardN(src, workers, func(_, _ int, s *polynomial.Set) error {
			eval(Compile(s))
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
