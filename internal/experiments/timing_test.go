package experiments

import (
	"fmt"
	"math"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// The speedup columns of E3, E5 and E8 are cobra.MeasureSpeedup; these two
// tests pin, from the package that prints them, what that number means.

func TestMeasureSpeedupMonotone(t *testing.T) {
	// A compressed program with far fewer monomials must not be slower.
	names := polynomial.NewNames()
	big := polynomial.NewSet(names)
	var b polynomial.Builder
	for i := 0; i < 5000; i++ {
		b.Add(float64(i+1), polynomial.T(names.Var(fmt.Sprintf("x%d", i%100))), polynomial.T(names.Var(fmt.Sprintf("m%d", i%12))))
	}
	big.Add("g", b.Polynomial())
	small := polynomial.NewSet(names)
	var sb polynomial.Builder
	for i := 0; i < 100; i++ {
		sb.Add(float64(i+1), polynomial.T(names.Var("u")), polynomial.T(names.Var(fmt.Sprintf("m%d", i%12))))
	}
	small.Add("g", sb.Polynomial())

	full, comp := valuation.Compile(big), valuation.Compile(small)
	vals := valuation.New(names).Dense(names.Len())
	tm := cobra.MeasureSpeedup(full, comp, vals, vals, 50)
	if tm.Full <= 0 || tm.Compressed <= 0 {
		t.Fatalf("timings must be positive: %+v", tm)
	}
	if tm.Speedup < 0.5 {
		t.Fatalf("50x smaller program speedup = %.2f, expected > 0.5", tm.Speedup)
	}
}

func TestTimingSpeedupDefinition(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	set.Add("g", polynomial.MustParse("x", names))
	p := valuation.Compile(set)
	vals := []float64{1}
	tm := cobra.MeasureSpeedup(p, p, vals, vals, 10)
	// Same program on both sides: speedup should be near zero.
	if math.Abs(tm.Speedup) > 0.9 {
		t.Fatalf("self-speedup = %v, expected near 0", tm.Speedup)
	}
}
