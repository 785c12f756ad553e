package experiments

import (
	"fmt"
	"time"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
)

// spjRevenueQuery joins calls, customers and instrumented plan prices
// without aggregating: one output row — and one provenance polynomial —
// per call, so the full provenance set grows with the join output while
// the streaming capture path holds only one batch of rows plus the
// builder's resident shards.
const spjRevenueQuery = `
SELECT Cust.Zip, Calls.Mo, Calls.Dur * Plans.Price AS rev
FROM Calls, Cust, Plans
WHERE Cust.Plan = Plans.Plan
  AND Cust.ID = Calls.CID
  AND Calls.Mo = Plans.Mo`

// E15StreamingCapture exercises streaming (non-materializing) provenance
// capture: a join whose full provenance set exceeds the memory budget is
// captured straight into a ShardBuilder through the engine's Volcano pull
// loop — the result relation and the full polynomial set never
// materialize. For every worker count the built set must stay within the
// MaxResidentMonomials budget (budget = full size / 8) and materialize to
// a set bit-identical to the materializing Capture baseline. (The
// baseline is held in memory only to verify the streamed output; the
// streamed pipeline itself never holds it.)
func E15StreamingCapture(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	t := &Table{
		ID:      "E15",
		Title:   "Streaming provenance capture (non-materializing, spill-to-disk)",
		Columns: []string{"workers", "rows", "monomials", "budget", "shards", "spilled", "peak resident", "within budget", "identical"},
	}

	// The engine path materializes the baseline join, so run at the
	// moderated capture scale.
	custs := cfg.TelephonyCustomers / 10
	if custs > 10_000 {
		custs = 10_000
	}
	if cfg.Quick && custs > 1_000 {
		custs = 1_000
	}
	if custs < 100 {
		custs = 100
	}

	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: custs}), names)
	if err != nil {
		return nil, err
	}

	// Materializing baseline.
	want, err := provenance.Capture(spjRevenueQuery, cat, names, "rev")
	if err != nil {
		return nil, err
	}
	budget := want.Size() / 8
	if budget < 2 {
		budget = 2
	}

	for _, w := range []int{1, 2, 8} {
		b := polynomial.NewShardBuilder(names, polynomial.ShardOptions{MaxResidentMonomials: budget})
		if err := provenance.CaptureStream(spjRevenueQuery, cat, "rev", b, w); err != nil {
			b.Discard()
			return nil, err
		}
		ss, err := b.Finish()
		if err != nil {
			return nil, err
		}
		peak := ss.PeakResidentMonomials()
		shards, spilled := ss.NumShards(), ss.SpilledShards()
		got, err := ss.Materialize()
		if err != nil {
			ss.Close()
			return nil, err
		}
		identical := sameSet(want, got)
		t.AddRow(w, want.Len(), want.Size(), budget, shards, spilled, peak,
			yesNo(peak <= budget), yesNo(identical))
		if err := ss.Close(); err != nil {
			return nil, err
		}
		if !identical {
			return nil, fmt.Errorf("E15: streamed capture differs from Capture at %d workers", w)
		}
		if peak > budget {
			return nil, fmt.Errorf("E15: peak resident %d exceeds budget %d at %d workers", peak, budget, w)
		}
	}

	t.Note("budget = MaxResidentMonomials = full provenance size / 8; peak resident is the capture-side high-water mark")
	t.Note("identical = materializing the streamed ShardedSet reproduces Capture's set (keys, order, coefficients) bit-for-bit")
	t.Elapsed = time.Since(start)
	return t, nil
}
