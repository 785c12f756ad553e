package core

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// TestBuildIndexAllocations pins the invariant PR 14's map-free index
// established: signature indexing allocates per polynomial run and per tree
// node (scratch, counters), never per monomial. On the retail shape — 1000
// polynomials, ≈210 000 monomials — a key string or map entry per monomial
// was ≈ 2 allocations per monomial; the scan now stays under one allocation
// per ten polynomials.
func TestBuildIndexAllocations(t *testing.T) {
	set, tree := retailShaped()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := buildIndexSource(set, tree, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("buildIndexSource: %.0f allocs for %d polynomials, %d monomials", allocs, set.Len(), set.Size())
	if limit := float64(set.Len()) / 10; allocs > limit {
		t.Fatalf("buildIndexSource allocates %.0f objects per call, want <= %.0f (one per ten polynomials)", allocs, limit)
	}
}

// TestWorkerAllocParity guards the per-worker arena work: running any of
// the solver entry points with workers=2 may not allocate more than a small
// overhead above workers=1 (pool bookkeeping — goroutines and per-worker
// scratch — is O(workers), far below the per-item work). The regressions
// this assertion pins down were 10× on the single-tree DP (a parallel
// signature scan that materialized a key string per monomial) and +20% on
// forest descent (a speculative round). Today workers > 1 run the one
// signature scan over runs of whole polynomials, so the only extra
// allocations are each worker's counters and scratch.
func TestWorkerAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-parity sweep is not -short friendly")
	}
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: 100_000}, names)
	tree := telephony.PlansTree(names)
	bound := set.Size() / 2
	forest := abstraction.Forest{telephony.PlansTree(names), telephony.MonthsTree(names, 12)}
	fbound := set.Size() / 4
	cases := []struct {
		name string
		run  func(workers int) error
	}{
		{"DPSingleTreeSource", func(w int) error {
			_, err := DPSingleTreeSource(set, tree, bound, w)
			return err
		}},
		{"ForestDescentSource", func(w int) error {
			_, err := ForestDescentSource(set, forest, fbound, 0, w)
			return err
		}},
		{"Apply", func(w int) error {
			res, err := DPSingleTreeSource(set, tree, bound, 1)
			if err == nil {
				abstraction.Apply(set, w, res.Cuts...)
			}
			return err
		}},
	}
	for _, tc := range cases {
		var runErr error
		measure := func(w int) float64 {
			return testing.AllocsPerRun(2, func() {
				if err := tc.run(w); err != nil && runErr == nil {
					runErr = err
				}
			})
		}
		w1 := measure(1)
		w2 := measure(2)
		if runErr != nil {
			t.Fatalf("%s: %v", tc.name, runErr)
		}
		if w2 > w1*1.05+128 {
			t.Errorf("%s: workers=2 allocates %.0f/op vs %.0f/op at workers=1", tc.name, w2, w1)
		}
	}
}
