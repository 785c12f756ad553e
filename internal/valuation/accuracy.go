package valuation

import (
	"fmt"
	"math"
)

// Accuracy summarizes the deviation of compressed-provenance results from
// full-provenance results across output groups — what the demo UI shows as
// "the changes in the analysis query results using valuation of the
// compressed provenance with respect to valuation of the full provenance".
type Accuracy struct {
	Groups  int
	MaxAbs  float64 // max |full - comp|
	MeanAbs float64
	MaxRel  float64 // max |full - comp| / max(|full|, tiny)
	MeanRel float64
	L1      float64 // Σ |full - comp|
	L1Rel   float64 // Σ|full-comp| / Σ|full|
}

// CompareResults computes accuracy metrics between equally long result
// vectors; groups correspond 1:1, so vectors of different lengths are an
// error.
func CompareResults(full, comp []float64) (Accuracy, error) {
	if len(full) != len(comp) {
		return Accuracy{}, fmt.Errorf("valuation: cannot compare %d full results with %d compressed results: groups must correspond 1:1", len(full), len(comp))
	}
	a := Accuracy{Groups: len(full)}
	if len(full) == 0 {
		return a, nil
	}
	var sumAbs, sumRel, sumFull float64
	for i := range full {
		d := math.Abs(full[i] - comp[i])
		sumAbs += d
		sumFull += math.Abs(full[i])
		if d > a.MaxAbs {
			a.MaxAbs = d
		}
		rel := 0.0
		if f := math.Abs(full[i]); f > 1e-12 {
			rel = d / f
		} else if d > 1e-12 {
			rel = math.Inf(1)
		}
		sumRel += rel
		if rel > a.MaxRel {
			a.MaxRel = rel
		}
	}
	a.MeanAbs = sumAbs / float64(len(full))
	a.MeanRel = sumRel / float64(len(full))
	a.L1 = sumAbs
	if sumFull > 1e-12 {
		a.L1Rel = sumAbs / sumFull
	} else if sumAbs > 1e-12 {
		a.L1Rel = math.Inf(1)
	}
	return a, nil
}

// Exact reports whether the compressed results are exact up to eps
// (relative). A valuation that is constant on every abstraction group is
// always exact — the soundness property of abstraction.
func (a Accuracy) Exact(eps float64) bool {
	return a.MaxRel <= eps && !math.IsInf(a.MaxRel, 1)
}
