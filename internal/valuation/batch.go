package valuation

import (
	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// EvalBatch evaluates the program under many assignments — the multi-analyst
// workload the paper motivates compression with ("applying valuation may be
// performed by multiple analysts"). Results are returned as one row per
// assignment; the out buffer is reused when it has capacity.
func (p *Program) EvalBatch(assignments []*Assignment, out [][]float64) [][]float64 {
	return p.EvalBatchN(assignments, out, 1)
}

// EvalBatchN is EvalBatch distributed over up to workers goroutines. The
// scenarios are chunked into contiguous ranges and each row is written to
// its own output slot, so the result rows are bit-identical to EvalBatch's
// for every worker count. workers <= 1 runs sequentially. The assignments
// must not be mutated concurrently with the call.
//
// A what-if scenario moves a few variables off 1 and leaves the rest, so a
// row is the memoized all-ones row with only the polynomials that mention a
// moved variable evaluated again (found through a variable → polynomials
// index the first call builds). An entry that is exactly 1, explicit or
// not, moves nothing. A re-evaluated polynomial runs the same kernel over
// the same dense vector as a full pass, and a skipped one would have seen
// only ones, as the memoized row did, so the rows are bit-identical to
// evaluating every polynomial. Once a scenario touches every polynomial
// the full pass runs instead. A worker with two or more full passes to
// make, on a program with no exponent above 1, makes them in blocks of
// four scenarios, each polynomial walked once per block with one sum per
// scenario, added in the same order: the rows are bit-identical to those
// of one scenario at a time, which is how a call for one scenario still
// runs. The workers' scratch — that dense vector, the marks of touched
// polynomials, the block's values — is kept by the Program between
// calls, so a call costs O(entries of its assignments + touched
// polynomials), not O(variables + polynomials), plus the rows it returns.
func (p *Program) EvalBatchN(assignments []*Assignment, out [][]float64, workers int) [][]float64 {
	p.sparseOnce.Do(p.buildSparse)
	return p.evalBatch(assignments, out, workers, true)
}

// evalBatch is EvalBatchN; with sparse false it evaluates every polynomial
// for every scenario and needs no index, which is what a program compiled
// for one use wants.
func (p *Program) evalBatch(assignments []*Assignment, out [][]float64, workers int, sparse bool) [][]float64 {
	if cap(out) >= len(assignments) {
		out = out[:len(assignments)]
	} else {
		out = make([][]float64, len(assignments))
	}
	switch n := len(assignments); {
	case n == 0:
	case n == 1 || workers <= 1:
		p.evalChunk(assignments, out, sparse)
	default:
		// A program with no exponent above 1 evaluates full passes in
		// blocks, so each worker gets whole blocks unless that would leave
		// one idle.
		unit := 1
		if p.tExps == nil && n >= blockRows*workers {
			unit = blockRows
		}
		parallel.Chunks(workers, (n+unit-1)/unit, func(_, lo, hi int) {
			lo, hi = lo*unit, min(hi*unit, n)
			p.evalChunk(assignments[lo:hi], out[lo:hi], sparse)
		})
	}
	return out
}

// sweep is one worker's scratch for evaluating scenario after scenario. It
// goes back to its Program's pool between calls, so a call for one scenario
// does not allocate and fill O(variables + polynomials) before it evaluates
// a handful of polynomials.
type sweep struct {
	p       *Program
	dense   []float64 // all ones between scenarios
	moved   []int32   // the variables the current scenario moves off 1
	mark    []uint32  // mark[pi] == epoch: pi is in touched; sized by the first sparse scenario
	epoch   uint32
	touched []int32

	// The scenarios of the current block, variable v of column k at
	// vb[v][k]; all ones between blocks, allocated by the first block.
	vb [][blockRows]float64
}

// eval returns the row of scenario a, reusing row's capacity; with sparse
// it re-evaluates only the polynomials a touches.
func (s *sweep) eval(a *Assignment, row []float64, sparse bool) []float64 {
	s.moved = s.moved[:0]
	for _, e := range a.vals {
		if e.x != 1 && inRange(e.v, len(s.dense)) {
			s.dense[e.v] = e.x
			s.moved = append(s.moved, int32(e.v))
		}
	}
	if sparse && s.touch() {
		row = append(row[:0], s.p.base...)
		for _, pi := range s.touched {
			row[pi] = s.p.evalPoly(int(pi), s.dense)
		}
	} else {
		row = s.p.Eval(s.dense, row)
	}
	for _, v := range s.moved {
		s.dense[v] = 1
	}
	return row
}

// touch collects the polynomials that mention a moved variable into
// s.touched, and reports false as soon as that is all of them.
func (s *sweep) touch() bool {
	if s.mark == nil {
		s.mark = make([]uint32, s.p.NumPolys())
	}
	s.epoch++
	if s.epoch == 0 {
		// Wrapped: marks left by the scenario 2^32 ago would read as
		// current.
		clear(s.mark)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
	p := s.p
	for _, v := range s.moved {
		for _, pi := range p.posts[p.postOff[v]:p.postOff[v+1]] {
			if s.mark[pi] != s.epoch {
				s.mark[pi] = s.epoch
				s.touched = append(s.touched, pi)
			}
		}
		if len(s.touched) == len(s.mark) {
			return false
		}
	}
	return true
}

// inRange reports whether v indexes a dense vector of length n. An
// assignment may name variables interned after the program was compiled,
// or NoVar; neither occurs in the program.
func inRange(v polynomial.Var, n int) bool { return v >= 0 && int(v) < n }
