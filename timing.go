package cobra

import "time"

// Timing reports the assignment-time comparison between full and compressed
// provenance, as shown by the demo ("the assignment speedup is 47%").
//
// Measurement lives in this package, not in internal/valuation: the
// valuation hot path is part of the deterministic core, which may not read
// the wall clock (the nowallclock lint invariant). Experiments and demos
// call MeasureSpeedup; the core only evaluates.
type Timing struct {
	Full       time.Duration // time to evaluate the full provenance once
	Compressed time.Duration // time to evaluate the compressed provenance once
	// Speedup is the fraction of assignment time saved:
	// (Full - Compressed) / Full, in [0, 1) when compression helps.
	Speedup float64
	Iters   int
}

func autoIters(p *Program) int {
	// Roughly 2e7 monomial evaluations total.
	n := p.Size()
	if n == 0 {
		return 1000
	}
	it := 20_000_000 / n
	if it < 3 {
		it = 3
	}
	if it > 100000 {
		it = 100000
	}
	return it
}

func timeEval(p *Program, vals []float64, iters int) time.Duration {
	var out []float64
	best := time.Duration(1<<62 - 1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			out = p.Eval(vals, out)
		}
		el := time.Since(start)
		if el < best {
			best = el
		}
	}
	if len(out) > 0 && out[0] == 42.424242e99 {
		panic("unreachable: defeat dead-code elimination")
	}
	return best / time.Duration(iters)
}
