package polynomial

import (
	"math"
	"math/bits"
	"slices"

	"github.com/cobra-prov/cobra/internal/parallel"
)

// MapSource streams src into sink with every variable v replaced by
// table[v] (v itself where the table does not reach), re-canonicalized —
// monomials that become equal merge — shard by shard and polynomial by
// polynomial in src's order. This is the algebraic operation behind
// abstraction, cut application's one streaming pass.
//
// Summation order: a merged coefficient is the left-to-right float64 sum
// of its contributions in the polynomial's order, zero contributions
// skipped and exactly-zero sums dropped — the Accumulator's rule, whichever
// of the two merges runs. A polynomial whose mapped monomials each fit one
// 64-bit key (at most two terms, every exponent 1, distinct non-negative
// variables: all SUM provenance under a cut) merges on those keys; any
// other goes through an Accumulator. Each polynomial is merged by one
// worker, so the emitted polynomials are bit-identical for every worker
// count, source and sink.
//
// With one worker, a *PackedSet or a *ShardBuilder sink gets the mapper's
// reused scratch, which its Add copies (a *PackedSet's slabs grow to the
// size the pass projects to); any other sink (*Set, which keeps what it is
// given) gets a copy of each polynomial in exactly-sized storage of its
// own. With more, up to workers goroutines each map a contiguous run of a
// shard's polynomials into such copies, which reach sink in order. A
// polynomial is never split: mapping its monomials in parallel ahead of
// the sequential merge measured 0.78x at 2 workers on 104 000 monomials.
func MapSource(src SetSource, sink SetSink, table []Var, workers int) error {
	ps, packed := sink.(*PackedSet)
	_, builder := sink.(*ShardBuilder)
	own, w, in, total := !packed && !builder, mapper{table: table}, 0, src.Size()
	return ForEachShardN(src, workers, func(_, _ int, shard *Set) error {
		polys, par := shard.Polys, workers > 1 && len(shard.Polys) > 1
		if par {
			polys = make([]Polynomial, len(polys))
			parallel.Chunks(workers, len(polys), func(_, lo, hi int) {
				w := mapper{table: table}
				for i := lo; i < hi; i++ {
					polys[i] = w.mapVars(shard.Polys[i], true)
				}
			})
		}
		for i, key := range shard.Keys {
			p := polys[i]
			if !par {
				p = w.mapVars(p, own)
			}
			if in += len(shard.Polys[i].Mons); packed && len(ps.coefs)+len(p.Mons) > cap(ps.coefs) {
				// Grow the slabs to what the whole pass projects to, plus
				// an eighth: filling them then costs a copy or two, not one
				// per growth step of append.
				project := func(have, n int) int { return (have+n)*total/in*9/8 - have }
				ps.Grow(0, project(len(ps.coefs), len(p.Mons)), project(len(ps.vars), 2*len(p.Mons)))
			}
			if err := sink.Add(key, p); err != nil {
				return err
			}
		}
		return nil
	})
}

// mapper is the state one worker reuses from polynomial to polynomial, so
// that mapping a polynomial into scratch allocates nothing once the
// scratch has grown.
type mapper struct {
	table []Var // v ↦ table[v] where the table reaches, v beyond it

	acc   Accumulator // the general merge: the distinct mapped term vectors
	arena []Term      // what those vectors are carved from

	slots []keySlot  // the key merge's open-addressed table
	keys  []uint64   // its distinct keys, sorted once merged
	sums  []float64  // the sum of keys[i]
	mons  []Monomial // the keys expanded into a polynomial
	terms []Term
}

// keySlot is one entry of mapKeys' table: a key plus one (0 marks an empty
// slot) and the running sum of its coefficients.
type keySlot struct {
	k   uint64
	sum float64
}

// to is the substitution of v.
func (w *mapper) to(v Var) Var {
	if uint(v) < uint(len(w.table)) {
		return w.table[v]
	}
	return v
}

// mapVars maps p, on 64-bit keys when every mapped monomial fits one and
// through the Accumulator otherwise. With own the result is a copy in
// exactly-sized storage of its own, one monomial array and one term array;
// without, it lives in w's scratch until the next call.
func (w *mapper) mapVars(p Polynomial, own bool) Polynomial {
	n, fits := w.mapKeys(p)
	if !fits {
		if own {
			return w.mapTerms(p).Clone()
		}
		return w.mapTerms(p)
	}
	if len(w.keys) == 0 {
		return Polynomial{}
	}
	mons, terms := w.mons[:0], w.terms[:0]
	if own {
		mons, terms = make([]Monomial, 0, len(w.keys)), make([]Term, 0, n)
	} else {
		mons, terms = slices.Grow(mons, len(w.keys)), slices.Grow(terms, n)
		w.mons, w.terms = mons, terms
	}
	for i, k := range w.keys { // terms never moves, so mons may point into it
		lo := len(terms)
		for _, v := range [2]uint64{k >> 32, k & math.MaxUint32} {
			if v != 0 {
				terms = append(terms, Term{Var: Var(v - 1), Exp: 1})
			}
		}
		mons = append(mons, Monomial{Coef: w.sums[i], Terms: terms[lo:len(terms):len(terms)]})
	}
	return Polynomial{Mons: mons}
}

// mapKeys is the merge on 64-bit keys. A mapped monomial a·b (a < b, both
// non-negative, exponents 1) is the key (a+1)<<32 | (b+1), a alone is
// (a+1)<<32 and a constant is 0, so unsigned key order is compareTerms
// order. Sums run in p's order in an open-addressed table; the distinct
// keys are then sorted, and those whose sum is not exactly zero left in
// w.keys with their sums in w.sums; it returns the number of terms those
// keys stand for. A zero coefficient is added where the Accumulator skips
// it: x + ±0 is x for every x but ±0, whose sum is dropped either way, so
// the bits are the same. It reports false, leaving nothing usable, at the
// first monomial that does not fit a key.
func (w *mapper) mapKeys(p Polynomial) (terms int, fits bool) {
	// Every key first, so that a polynomial that does not fit costs no
	// table; the distinct keys then take the front of the same buffer.
	keys := slices.Grow(w.keys[:0], len(p.Mons))
	w.keys = keys[:0] // grown once per largest polynomial, whether or not p fits
	for _, m := range p.Mons {
		var k uint64
		switch ts := m.Terms; len(ts) {
		case 0:
		case 1:
			a := w.to(ts[0].Var)
			if ts[0].Exp != 1 || a < 0 {
				return 0, false
			}
			k = (uint64(a) + 1) << 32
		case 2:
			a, b := w.to(ts[0].Var), w.to(ts[1].Var)
			if ts[0].Exp != 1 || ts[1].Exp != 1 || a < 0 || b < 0 || a == b {
				return 0, false
			}
			k = (uint64(min(a, b))+1)<<32 | (uint64(max(a, b)) + 1)
		default:
			return 0, false
		}
		keys = append(keys, k)
	}
	lg := 4 + bits.Len(uint(len(keys))/8) // a table of more than twice the keys
	slots := slices.Grow(w.slots[:0], 1<<lg)[:1<<lg]
	clear(slots)
	w.slots = slots
	mask, shift := uint64(1<<lg-1), uint(64-lg)
	distinct := 0
	for j, k := range keys {
		for s := (k * 0x9e3779b97f4a7c15) >> shift; ; s = (s + 1) & mask {
			if e := &slots[s]; e.k == k+1 {
				e.sum += p.Mons[j].Coef
				break
			} else if e.k == 0 {
				*e = keySlot{k + 1, p.Mons[j].Coef}
				keys[distinct] = k
				distinct++
				break
			}
		}
	}
	keys = keys[:distinct]
	slices.Sort(keys)
	sums, n := slices.Grow(w.sums[:0], len(keys)), 0
	for _, k := range keys {
		s := (k * 0x9e3779b97f4a7c15) >> shift
		for slots[s].k != k+1 {
			s = (s + 1) & mask
		}
		if c := slots[s].sum; c != 0 {
			keys[n], sums = k, append(sums, c)
			n, terms = n+1, terms+min(int(k>>32), 1)+min(int(uint32(k)), 1)
		}
	}
	w.keys, w.sums = keys[:n], sums
	return terms, true
}

// mapTerms is the general merge: each monomial is mapped into the tail of
// the arena (re-sorted and merged only when the substitution broke its
// order, repeated a variable, or the input carried a zero exponent) and
// added to the accumulator, which keeps the tail if the vector is new and
// otherwise leaves it to be overwritten by the next monomial. Only the
// distinct vectors are sorted.
func (w *mapper) mapTerms(p Polynomial) Polynomial {
	a := &w.acc
	a.mons, a.hashes = a.mons[:0], a.hashes[:0] // emptied, storage kept; see rehash
	arena := w.arena[:0]
	for _, m := range p.Mons {
		n := len(m.Terms)
		if cap(arena)-len(arena) < n {
			// Vectors already kept stay in the chunk they were carved
			// from; only the newest chunk is reused.
			arena = make([]Term, 0, max(2*cap(arena), n, 512))
		}
		nm := Monomial{Terms: arena[len(arena) : len(arena)+n]}
		canonical := true
		for j, t := range m.Terms {
			v := w.to(t.Var)
			nm.Terms[j] = Term{Var: v, Exp: t.Exp}
			if t.Exp == 0 || (j > 0 && v <= nm.Terms[j-1].Var) {
				canonical = false
			}
		}
		if !canonical {
			nm.normalize()
		}
		if n = len(nm.Terms); a.Add(m.Coef, nm.Terms[:n:n]) {
			arena = arena[:len(arena)+n]
		}
	}
	w.arena = arena
	return Polynomial{Mons: a.sorted()}
}
