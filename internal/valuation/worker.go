package valuation

import "slices"

// One worker's share of a batch, and the blocked full pass. This code is in
// a file that sorts after the one-scenario path's on purpose: a package's
// functions are laid out in file order, and with it inserted ahead of
// evalPoly the unchanged arity-1 loop crossed a 64-byte line and the
// one-scenario pass ran ≈ 20 % slower (BenchmarkProgramEval
// dense/arity1/scenarios=1).

// blockRows is how many scenarios one walk of the program evaluates in a
// blocked full pass.
const blockRows = 4

// evalChunk is one worker's share of evalBatch: the rows of as into rows,
// on a sweep from the pool.
func (p *Program) evalChunk(as []*Assignment, rows [][]float64, sparse bool) {
	s, _ := p.sweeps.Get().(*sweep)
	if s == nil {
		s = &sweep{p: p, dense: slices.Repeat([]float64{1}, p.numVars)}
	}
	if len(as) < 2 || p.tExps != nil {
		for i, a := range as {
			rows[i] = s.eval(a, rows[i], sparse)
		}
	} else {
		s.evalBlocked(as, rows, sparse)
	}
	p.sweeps.Put(s)
}

// evalBlocked is eval over two or more scenarios of a program with no
// exponent above 1, rows[i] the row of as[i]. Each scenario is read into
// the next free column of vb; one that eval would answer with a full pass
// stays there, and every blockRows of them are evaluated in one walk of
// the program. The others are answered as eval answers them, from the
// dense vector, and so is a full-pass scenario left without a partner at
// the end.
func (s *sweep) evalBlocked(as []*Assignment, rows [][]float64, sparse bool) {
	if s.vb == nil {
		s.vb = slices.Repeat([][blockRows]float64{{1, 1, 1, 1}}, len(s.dense))
	}
	var block [blockRows]int // the scenario in each column
	k := 0
	for i, a := range as {
		s.moved = s.moved[:0]
		for _, e := range a.vals {
			if e.x != 1 && inRange(e.v, len(s.vb)) {
				s.vb[e.v][k] = e.x
				s.moved = append(s.moved, int32(e.v))
			}
		}
		if sparse && s.touch() {
			for _, v := range s.moved {
				s.dense[v], s.vb[v][k] = s.vb[v][k], 1
			}
			rows[i] = append(rows[i][:0], s.p.base...)
			for _, pi := range s.touched {
				rows[i][pi] = s.p.evalPoly(int(pi), s.dense)
			}
			for _, v := range s.moved {
				s.dense[v] = 1
			}
			continue
		}
		block[k] = i
		k++
		if k == blockRows {
			s.evalBlock(as, rows, block[:])
			k = 0
		}
	}
	if k == 1 {
		s.resetBlock(as, block[:1])
		rows[block[0]] = s.eval(as[block[0]], rows[block[0]], false)
	} else if k > 1 {
		// The columns past k hold ones; their sums are dropped.
		s.evalBlock(as, rows, block[:k])
	}
}

// evalBlock writes the row of every scenario in vb, rows[block[k]] for
// column k, in one walk of the program, and puts vb back to all ones.
func (s *sweep) evalBlock(as []*Assignment, rows [][]float64, block []int) {
	n := s.p.NumPolys()
	for _, i := range block {
		if cap(rows[i]) < n {
			rows[i] = make([]float64, n)
		}
		rows[i] = rows[i][:n]
	}
	for pi := 0; pi < n; pi++ {
		sums := s.p.evalPolyBlock(pi, s.vb)
		for k, i := range block {
			rows[i][pi] = sums[k]
		}
	}
	s.resetBlock(as, block)
}

// resetBlock puts back to 1 every value of vb that the scenarios in
// columns block set.
func (s *sweep) resetBlock(as []*Assignment, block []int) {
	for k, i := range block {
		for _, e := range as[i].vals {
			if inRange(e.v, len(s.vb)) {
				s.vb[e.v][k] = 1
			}
		}
	}
}

// evalPolyBlock is evalPoly for the blockRows scenarios in vb — variable v
// of column k at vb[v][k] — on a program whose exponents are all 1. Each
// column has a sum of its own, added in monomial order from products taken
// left to right, and float64(x) rounds every product before its add:
// evalPoly's rule applied per column, so column k is bit for bit what
// evalPoly returns for that scenario alone.
func (p *Program) evalPolyBlock(pi int, vb [][blockRows]float64) [blockRows]float64 {
	lo, hi := p.polyOff[pi], p.polyOff[pi+1]
	coefs, ends := p.coefs[lo:hi], p.monOff[lo+1:hi+1]
	ti := p.monOff[lo]
	var s0, s1, s2, s3 float64
	switch p.arity {
	case 2:
		tv := p.tVars[ti:p.monOff[hi]][:2*len(coefs)]
		for j, c := range coefs {
			x := &vb[tv[2*j]]
			y := &vb[tv[2*j+1]]
			s0 += float64(c * x[0] * y[0])
			s1 += float64(c * x[1] * y[1])
			s2 += float64(c * x[2] * y[2])
			s3 += float64(c * x[3] * y[3])
		}
	case 1:
		tv := p.tVars[ti:p.monOff[hi]][:len(coefs)]
		for j, c := range coefs {
			x := &vb[tv[j]]
			s0 += float64(c * x[0])
			s1 += float64(c * x[1])
			s2 += float64(c * x[2])
			s3 += float64(c * x[3])
		}
	default:
		tVars := p.tVars
		for j, c := range coefs {
			x0, x1, x2, x3 := c, c, c, c
			for end := ends[j]; ti < end; ti++ {
				x := &vb[tVars[ti]]
				x0 *= x[0]
				x1 *= x[1]
				x2 *= x[2]
				x3 *= x[3]
			}
			s0 += float64(x0)
			s1 += float64(x1)
			s2 += float64(x2)
			s3 += float64(x3)
		}
	}
	return [blockRows]float64{s0, s1, s2, s3}
}
