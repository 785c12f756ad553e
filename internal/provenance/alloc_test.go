package provenance_test

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
)

// TestCaptureAllocationsQ1 is TestCaptureAllocations for the other shape of
// capture: no join, one symbolic SUM over a product of three factors on
// every row of lineitem. The two concrete factors are folded into each
// coefficient as the row is added; one scaled polynomial per row was
// 54 348 objects per capture. (An external test package: tpch imports
// provenance.)
func TestCaptureAllocationsQ1(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-H at SF 0.01")
	}
	names := polynomial.NewNames()
	cat, err := tpch.InstrumentByShipMonth(tpch.Generate(tpch.Config{SF: 0.01}), names)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		set, err := provenance.Capture(tpch.Q1Prov, cat, names, "revenue")
		if err != nil || set.Len() != 3 {
			t.Fatalf("capture: %v, %d polynomials", err, set.Len())
		}
	})
	if allocs >= 2000 {
		t.Fatalf("Capture(Q1) allocates %.0f objects per call, want < 2000", allocs)
	}
	t.Logf("Capture(Q1): %.0f allocs per call", allocs)
}
