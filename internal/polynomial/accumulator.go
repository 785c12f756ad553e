package polynomial

import "slices"

// Accumulator sums monomials, merging equal term vectors as they arrive
// instead of collecting every contribution and sorting them all at the end
// (Builder): a symbolic SUM over thousands of rows whose provenance has a
// hundred distinct term vectors keeps a hundred entries, and the canonical
// sort in Polynomial runs over those only. The zero Accumulator is ready
// to use.
//
// Summation order: a merged coefficient is the left-to-right float64 sum
// of its contributions in the order they were added. (Builder sums them in
// whatever order its sort leaves equal term vectors.)
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

// Add adds the monomial coef·terms. terms must be canonical and is
// retained, not copied (term vectors are immutable by convention).
func (a *Accumulator) Add(coef float64, terms []Term) {
	if coef == 0 {
		return
	}
	h := hashTerms(terms)
	if a.slots == nil {
		for i, mh := range a.hashes {
			if mh == h && compareTerms(a.mons[i].Terms, terms) == 0 {
				a.mons[i].Coef += coef
				return
			}
		}
	} else {
		mask := uint64(len(a.slots) - 1)
		for s := h & mask; a.slots[s] != 0; s = (s + 1) & mask {
			if i := a.slots[s] - 1; a.hashes[i] == h && compareTerms(a.mons[i].Terms, terms) == 0 {
				a.mons[i].Coef += coef
				return
			}
		}
	}
	a.mons = append(a.mons, Monomial{Coef: coef, Terms: terms})
	a.hashes = append(a.hashes, h)
	switch n := len(a.mons); {
	case n <= accLinear:
	case 2*n > len(a.slots):
		a.rehash(4 * n)
	default:
		a.place(int32(n - 1))
	}
}

// rehash rebuilds slots with at least size entries (a power of two).
func (a *Accumulator) rehash(size int) {
	n := 16
	for n < size {
		n <<= 1
	}
	a.slots = make([]int32, n)
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
	mons := slices.DeleteFunc(a.mons, func(m Monomial) bool { return m.Coef == 0 })
	slices.SortFunc(mons, func(x, y Monomial) int { return compareTerms(x.Terms, y.Terms) })
	*a = Accumulator{}
	return Polynomial{Mons: mons}
}
