package valuation

import (
	"slices"
	"sync"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Program evaluates a polynomial set, packed, under scenario after
// scenario — the hot path of hypothetical reasoning, where an analyst
// applies many scenarios to the same provenance. Both the full and the
// compressed provenance are evaluated through Program, so the measured
// speedup isolates the effect of compression.
//
// A Program copies nothing: its slab fields are a polynomial.PackedSet's
// own polyOff, coefs, monOff, vars and exps, bound in place (bind), and
// what it adds is the kernel it runs (arity), the index sparse scenarios
// are answered from and the workers' pooled scratch. It holds slice
// headers rather than the *PackedSet so the kernels read their slabs with
// no extra indirection.
type Program struct {
	names   *polynomial.Names
	numVars int

	polyOff []int32 // polynomial i covers monomials polyOff[i]..polyOff[i+1]
	coefs   []float64
	monOff  []int32 // monomial j covers terms monOff[j]..monOff[j+1]
	tVars   []int32
	tExps   []int32 // nil when every exponent is 1, as in all SUM provenance
	arity   int     // 1 or 2 when tExps is nil and every monomial has that many terms, else 0

	// What EvalBatchN needs to re-evaluate only the polynomials a sparse
	// scenario touches; built by buildSparse on its first call.
	sparseOnce sync.Once
	postOff    []int32   // variable v occurs in polynomials posts[postOff[v]:postOff[v+1]]
	posts      []int32   // ascending per variable, each polynomial once
	base       []float64 // the row under the all-ones valuation

	sweeps sync.Pool // of *sweep: the workers' scratch outlives an EvalBatchN call
}

// Compile packs set (polynomial.PackSet) and returns the Program over the
// packed copy. It panics with PackSet's error if the set overflows the
// packed layout's int32 offsets (≈2.1 billion monomials or terms); pack
// the set and call NewProgram to get that error as a value.
func Compile(set *polynomial.Set) *Program {
	ps, err := polynomial.PackSet(set)
	if err != nil {
		panic(err)
	}
	return NewProgram(ps)
}

// setArity picks the kernel evalPoly runs from tExps and monOff.
func (p *Program) setArity() {
	p.arity = 0
	if p.tExps != nil || len(p.coefs) == 0 {
		return
	}
	k := p.monOff[1] - p.monOff[0]
	if k != 1 && k != 2 {
		return
	}
	for j, end := range p.monOff[1:] {
		if end-p.monOff[j] != k {
			return
		}
	}
	p.arity = int(k)
}

// NumPolys returns the number of polynomials.
func (p *Program) NumPolys() int { return len(p.polyOff) - 1 }

// Size returns the total number of monomials.
func (p *Program) Size() int { return len(p.coefs) }

// NumVars returns the namespace size the program was compiled against.
func (p *Program) NumVars() int { return p.numVars }

// Eval evaluates all polynomials under the dense valuation vals (indexed by
// Var; callers typically use Assignment.Dense). The result is appended into
// out (reused if capacity allows) and returned.
func (p *Program) Eval(vals []float64, out []float64) []float64 {
	n := p.NumPolys()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for pi := range out {
		out[pi] = p.evalPoly(pi, vals)
	}
	return out
}

// evalPoly evaluates polynomial pi under vals. Every kernel multiplies a
// monomial's coefficient by its terms left to right and adds the monomials
// in order, so a polynomial's value does not depend on which one ran. The
// arity kernels step through the terms by a constant stride instead of
// reading each monomial's end from monOff. Their float64(x) rounds the
// product before the add: a platform with FMA could fuse the last multiply
// into the add otherwise, which the term loops below never let it do.
func (p *Program) evalPoly(pi int, vals []float64) float64 {
	lo, hi := p.polyOff[pi], p.polyOff[pi+1]
	coefs, ends := p.coefs[lo:hi], p.monOff[lo+1:hi+1]
	ti := p.monOff[lo]
	sum := 0.0
	switch p.arity {
	case 2:
		tv := p.tVars[ti:p.monOff[hi]][:2*len(coefs)]
		for j, x := range coefs {
			x *= vals[tv[2*j]]
			x *= vals[tv[2*j+1]]
			sum += float64(x)
		}
		return sum
	case 1:
		tv := p.tVars[ti:p.monOff[hi]][:len(coefs)]
		for j, x := range coefs {
			x *= vals[tv[j]]
			sum += float64(x)
		}
		return sum
	}
	if p.tExps == nil {
		// One cursor runs over the polynomial's terms; a monomial ends
		// where the next begins.
		tVars := p.tVars
		for j, x := range coefs {
			for end := ends[j]; ti < end; ti++ {
				x *= vals[tVars[ti]]
			}
			sum += x
		}
		return sum
	}
	for j, x := range coefs {
		for end := ends[j]; ti < end; ti++ {
			v := vals[p.tVars[ti]]
			if e := p.tExps[ti]; e == 1 {
				x *= v
			} else {
				x *= powInt(v, e)
			}
		}
		sum += x
	}
	return sum
}

// NewProgram returns the Program over ps's slabs, copying nothing: ps must
// not change while the Program is in use.
func NewProgram(ps *polynomial.PackedSet) *Program {
	p := &Program{names: ps.Names(), numVars: ps.Names().Len()}
	p.bind(ps)
	return p
}

// bind points the program at ps's slabs and picks the kernel for them.
func (p *Program) bind(ps *polynomial.PackedSet) {
	p.polyOff, p.coefs, p.monOff = ps.PolyOff(), ps.Coefs(), ps.MonOff()
	p.tVars, p.tExps = ps.Vars(), ps.Exps()
	p.setArity()
}

// buildSparse builds the postings index and the all-ones row.
func (p *Program) buildSparse() {
	// A variable is listed once per polynomial however many monomials
	// mention it: seen[v] holds the last polynomial (plus one) that
	// visited v.
	seen := make([]int32, p.numVars)
	eachDistinct := func(visit func(v, pi int32)) {
		clear(seen)
		for pi := int32(0); int(pi) < p.NumPolys(); pi++ {
			for _, v := range p.tVars[p.monOff[p.polyOff[pi]]:p.monOff[p.polyOff[pi+1]]] {
				if seen[v] != pi+1 {
					seen[v] = pi + 1
					visit(v, pi)
				}
			}
		}
	}
	p.postOff = make([]int32, p.numVars+1)
	eachDistinct(func(v, _ int32) { p.postOff[v+1]++ })
	for v := 0; v < p.numVars; v++ {
		p.postOff[v+1] += p.postOff[v]
	}
	p.posts = make([]int32, p.postOff[p.numVars])
	next := append([]int32(nil), p.postOff[:p.numVars]...)
	eachDistinct(func(v, pi int32) {
		p.posts[next[v]] = pi
		next[v]++
	})

	p.base = p.Eval(slices.Repeat([]float64{1}, p.numVars), nil)
}

// EvalAssignment evaluates under a sparse Assignment.
func (p *Program) EvalAssignment(a *Assignment, out []float64) []float64 {
	return p.Eval(a.Dense(p.numVars), out)
}

func powInt(x float64, e int32) float64 {
	r := 1.0
	for e > 0 {
		if e&1 == 1 {
			r *= x
		}
		x *= x
		e >>= 1
	}
	return r
}
