package polynomial

import "slices"

// Accumulator sums monomials, merging equal term vectors as they arrive
// instead of collecting every contribution and sorting them all at the end
// (Builder): a symbolic SUM over thousands of rows whose provenance has a
// hundred distinct term vectors keeps a hundred entries, and the canonical
// sort in Polynomial runs over those only. Capture and cut application
// (MapSource) both sum through it. The zero Accumulator is ready to use.
//
// Summation order: a merged coefficient is the left-to-right float64 sum
// of its contributions in the order they were added. (Builder, left to the
// text parser and the polynomial arithmetic, sums them in whatever order
// its sort leaves equal term vectors.)
type Accumulator struct {
	mons   []Monomial // distinct term vectors in first-seen order; Coef is the running sum
	hashes []uint64   // hashTerms of mons[i].Terms
	// slots is an open-addressed table of index+1 into mons (0 = empty),
	// built once the distinct term vectors outgrow a linear scan.
	slots []int32
}

// accLinear is the number of distinct term vectors up to which Add scans
// them instead of hashing into slots: most groups of most queries never
// get a table.
const accLinear = 8

// Mix folds one word into a running 64-bit hash (multiply, then fold the
// high half down so the low bits a table masks depend on every input bit).
func Mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

func hashTerms(terms []Term) uint64 {
	h := uint64(len(terms))
	for _, t := range terms {
		h = Mix(h, uint64(uint32(t.Var))<<32|uint64(uint32(t.Exp)))
	}
	return h
}

// Add adds the monomial coef·terms and reports whether its term vector was
// new to the sum. terms must be canonical; a new vector is retained, not
// copied (term vectors are immutable by convention), any other is not kept.
func (a *Accumulator) Add(coef float64, terms []Term) bool {
	if coef == 0 {
		return false
	}
	h := hashTerms(terms)
	if len(a.mons) <= accLinear {
		for i, mh := range a.hashes {
			if mh == h && compareTerms(a.mons[i].Terms, terms) == 0 {
				a.mons[i].Coef += coef
				return false
			}
		}
	} else {
		mask := uint64(len(a.slots) - 1)
		for s := h & mask; a.slots[s] != 0; s = (s + 1) & mask {
			if i := a.slots[s] - 1; a.hashes[i] == h && compareTerms(a.mons[i].Terms, terms) == 0 {
				a.mons[i].Coef += coef
				return false
			}
		}
	}
	a.mons = append(a.mons, Monomial{Coef: coef, Terms: terms})
	a.hashes = append(a.hashes, h)
	switch n := len(a.mons); {
	case n <= accLinear:
	case n == accLinear+1 || 2*n > len(a.slots):
		a.rehash(4 * n)
	default:
		a.place(int32(n - 1))
	}
	return true
}

// rehash rebuilds slots with at least size entries (a power of two), in
// the storage it has when that is enough: a reused accumulator (MapSource)
// truncates mons and hashes and leaves slots stale until the distinct term
// vectors outgrow the linear scan again, which brings it here.
func (a *Accumulator) rehash(size int) {
	n := 16
	for n < size {
		n <<= 1
	}
	a.slots = slices.Grow(a.slots[:0], n)[:n]
	clear(a.slots)
	for i := range a.mons {
		a.place(int32(i))
	}
}

// place enters mons[i], known to be absent, into slots.
func (a *Accumulator) place(i int32) {
	mask := uint64(len(a.slots) - 1)
	s := a.hashes[i] & mask
	for a.slots[s] != 0 {
		s = (s + 1) & mask
	}
	a.slots[s] = i + 1
}

// AddPolynomial adds every monomial of p, in p's order.
func (a *Accumulator) AddPolynomial(p Polynomial) {
	for _, m := range p.Mons {
		a.Add(m.Coef, m.Terms)
	}
}

// Polynomial returns the canonical sum and resets the accumulator. Term
// vectors whose contributions cancelled exactly are dropped.
func (a *Accumulator) Polynomial() Polynomial {
	mons := a.sorted()
	*a = Accumulator{}
	return Polynomial{Mons: mons}
}

// sorted puts what a holds into canonical form, in a's own storage: exact
// cancellations dropped, the rest in compareTerms order. Nothing may be
// added until the accumulator has been emptied.
func (a *Accumulator) sorted() []Monomial {
	mons := slices.DeleteFunc(a.mons, func(m Monomial) bool { return m.Coef == 0 })
	slices.SortFunc(mons, func(x, y Monomial) int { return compareTerms(x.Terms, y.Terms) })
	return mons
}
