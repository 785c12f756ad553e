package experiments

import (
	"fmt"
	"time"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// E14OutOfCore exercises the sharded, spill-to-disk storage path: the
// telephony provenance is sharded under a memory budget of 1/8 of its
// size, compressed shard-at-a-time, and the result compared against the
// in-memory DP — cut, sizes, and the applied compressed provenance must
// be bit-identical for every worker count, while the sharded set's peak
// resident monomials stay within the budget. (The in-memory baseline is
// held only to verify the streamed output; the streamed pipeline itself
// touches one shard at a time.)
func E14OutOfCore(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	t := &Table{
		ID:      "E14",
		Title:   "Out-of-core compression (sharded polynomial storage, spill-to-disk)",
		Columns: []string{"workers", "monomials", "budget", "shards", "spilled", "peak resident", "within budget", "identical"},
	}

	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	tree := telephony.PlansTree(names)
	bound := set.Size() / 2
	budget := set.Size() / 8
	if budget < 2 {
		budget = 2
	}

	// In-memory baseline: the exact DP and its applied provenance.
	want, err := core.DPSingleTreeSource(set, tree, bound, 1)
	if err != nil {
		return nil, err
	}
	wantApplied := abstraction.Apply(set, 1, want.Cuts...)

	for _, w := range []int{1, 2, 8} {
		ss, err := polynomial.BuildSharded(set, polynomial.ShardOptions{MaxResidentMonomials: budget})
		if err != nil {
			return nil, err
		}
		res, err := core.CompressSource(ss, abstraction.Forest{tree}, bound, w)
		if err != nil {
			ss.Close()
			return nil, err
		}
		compressed, err := applyToShards(ss, w, res.Cuts...)
		if err != nil {
			ss.Close()
			return nil, err
		}
		got, err := compressed.Materialize()
		if err != nil {
			ss.Close()
			compressed.Close()
			return nil, err
		}
		identical := sameResult(want, res) && sameSet(wantApplied, got)
		peak := ss.PeakResidentMonomials()
		if p := compressed.PeakResidentMonomials(); p > peak {
			peak = p
		}
		t.AddRow(w, set.Size(), budget, ss.NumShards(), ss.SpilledShards(), peak,
			yesNo(peak <= budget), yesNo(identical))
		if err := compressed.Close(); err != nil {
			ss.Close()
			return nil, err
		}
		if err := ss.Close(); err != nil {
			return nil, err
		}
		if !identical {
			return nil, fmt.Errorf("E14: streamed result differs from in-memory at %d workers", w)
		}
		if peak > budget {
			return nil, fmt.Errorf("E14: peak resident %d exceeds budget %d at %d workers", peak, budget, w)
		}
	}

	t.Note("budget = MaxResidentMonomials; peak resident is the high-water mark across the input and compressed sharded sets")
	t.Note("identical = streamed cut, stats and applied provenance are bit-identical to the in-memory DP")
	t.Elapsed = time.Since(start)
	return t, nil
}

// applyToShards applies cuts to a sharded set shard-at-a-time into a new
// ShardedSet under the same options, so the compressed set spills past the
// same memory budget.
func applyToShards(ss *polynomial.ShardedSet, workers int, cuts ...abstraction.Cut) (*polynomial.ShardedSet, error) {
	b := polynomial.NewShardBuilder(ss.Names(), ss.Options())
	defer b.Discard() // release partial spill files on any error path
	if err := abstraction.ApplySource(ss, b, workers, cuts...); err != nil {
		return nil, err
	}
	return b.Finish()
}

// sameSet reports exact equality of two in-memory sets sharing a
// namespace: same keys, same polynomials, bit-identical coefficients.
func sameSet(a, b *polynomial.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || !polynomial.Equal(a.Polys[i], b.Polys[i]) {
			return false
		}
	}
	return true
}

// sameResult compares the fields of two compression results that determine
// the chosen abstraction.
func sameResult(a, b *core.Result) bool {
	if a == nil || b == nil || a.Size != b.Size || a.NumMeta != b.NumMeta || len(a.Cuts) != len(b.Cuts) {
		return false
	}
	for i := range a.Cuts {
		if !a.Cuts[i].Equal(b.Cuts[i]) {
			return false
		}
	}
	return true
}

// sameRows compares two result matrices for exact (bitwise) equality.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
