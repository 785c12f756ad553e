package polynomial

import (
	"github.com/cobra-prov/cobra/internal/parallel"
)

// minParallelMons is the monomial count below which sharding a single
// polynomial costs more in goroutine handoff than it saves.
const minParallelMons = 4096

// MapVarsN is MapVars distributed over up to workers goroutines. Only the
// per-monomial mapping phase is sharded (over contiguous monomial ranges,
// each carving its terms from a slab of its own); the mapped monomials land
// in their original positions and the final sort-and-merge is one
// sequential pass, so the result — including the left-to-right
// floating-point summation order of merged coefficients — is bit-identical
// for every worker count.
func MapVarsN(p Polynomial, f func(Var) Var, workers int) Polynomial {
	if len(p.Mons) == 0 {
		return Polynomial{}
	}
	if len(p.Mons) < minParallelMons {
		workers = 1
	}
	mons := make([]Monomial, len(p.Mons))
	parallel.Chunks(workers, len(p.Mons), func(_, lo, hi int) {
		mapMons(mons[lo:hi], p.Mons[lo:hi], f)
	})
	return Polynomial{Mons: sortAndMerge(mons)}
}

// MapVarsN is Set.MapVars distributed over up to workers goroutines. Sets
// with enough polynomials parallelize across them (each polynomial computed
// by the exact sequential code); sets dominated by a few large polynomials
// shard inside each polynomial instead. Either way the output is
// bit-identical to the sequential MapVars.
func (s *Set) MapVarsN(f func(Var) Var, workers int) *Set {
	workers = parallel.Normalize(workers)
	if workers == 1 {
		return s.MapVars(f)
	}
	out := &Set{Names: s.Names, Keys: append([]string(nil), s.Keys...), Polys: make([]Polynomial, len(s.Polys))}
	if len(s.Polys) >= 2*workers {
		parallel.ForEach(workers, len(s.Polys), func(i int) {
			out.Polys[i] = MapVars(s.Polys[i], f)
		})
	} else {
		for i, p := range s.Polys {
			out.Polys[i] = MapVarsN(p, f, workers)
		}
	}
	return out
}
