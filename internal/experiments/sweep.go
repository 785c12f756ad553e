package experiments

import (
	"errors"
	"fmt"
	"time"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

// SweepBoundCount is the size of E16's bound batch — the "slider
// positions" a single sweep answers from one DP run.
const SweepBoundCount = 32

// SweepBounds returns n bounds evenly spanning (0, size] — the batch a
// bound slider explores over a provenance of the given size.
func SweepBounds(size, n int) []int {
	bounds := make([]int, n)
	for i := range bounds {
		bounds[i] = size * (i + 1) / n
	}
	return bounds
}

// E16FrontierSweep measures the batched multi-bound frontier sweep against
// per-bound recompression on the telephony workload: one FrontierSweep
// call answering a 32-bound batch versus 32 independent single-tree DP
// runs, for Workers ∈ {1, 2, 8}. Every sweep answer must be bit-identical
// to the per-bound DP's result (or error) — the determinism guarantee
// extended to sweeps — and the sweep must be at least 5× faster than the
// recompression loop (the speedup is algorithmic — one signature-indexing
// pass instead of 32 — so it does not depend on core count); both are hard
// failures, the speedup one outside Quick mode only.
func E16FrontierSweep(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	t := &Table{
		ID: "E16",
		Title: fmt.Sprintf("Batched frontier sweep: one DP run vs %d per-bound recompressions",
			SweepBoundCount),
		Columns: []string{"workers", "monomials", "bounds", "sweep", "recompress", "speedup", "identical"},
	}

	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	tree := telephony.PlansTree(names)
	forest := abstraction.Forest{tree}
	bounds := SweepBounds(set.Size(), SweepBoundCount)

	var reference []core.SweepAnswer
	for _, w := range []int{1, 2, 8} {
		// The recompression loop: one full DP per bound.
		t0 := time.Now()
		perBound := make([]*core.Result, len(bounds))
		perBoundErr := make([]error, len(bounds))
		for i, bound := range bounds {
			perBound[i], perBoundErr[i] = core.DPSingleTreeSource(set, tree, bound, w)
			if perBoundErr[i] != nil && !errors.Is(perBoundErr[i], core.ErrInfeasible) {
				return nil, perBoundErr[i]
			}
		}
		recompress := time.Since(t0)

		// The sweep: one DP run, every bound a lookup.
		t0 = time.Now()
		answers, err := core.FrontierSweepSource(set, forest, bounds, w)
		if err != nil {
			return nil, err
		}
		sweep := time.Since(t0)

		identical := len(answers) == len(bounds)
		for i := 0; identical && i < len(answers); i++ {
			identical = sweepAnswerEqual(answers[i], perBound[i], perBoundErr[i])
		}
		if w == 1 {
			reference = answers
		} else {
			// Cross-worker: every count must answer exactly like workers=1.
			for i := 0; identical && i < len(answers); i++ {
				identical = sweepAnswersEqual(answers[i], reference[i])
			}
		}

		speedup := float64(recompress) / float64(sweep)
		t.AddRow(w, set.Size(), len(bounds), sweep, recompress,
			fmt.Sprintf("%.1fx", speedup), yesNo(identical))
		if !identical {
			return nil, fmt.Errorf("E16: sweep answers differ from per-bound compression at %d workers", w)
		}
		if !cfg.Quick && speedup < 5 {
			return nil, fmt.Errorf("E16: sweep speedup %.1fx below the required 5x at %d workers", speedup, w)
		}
	}

	t.Note("identical = every sweep answer (cut, sizes, statistics, error) is bit-identical to the per-bound DP's, and to the workers=1 sweep")
	t.Note("speedup = recompress/sweep; one signature-indexing pass amortized over the whole bound batch")
	t.Elapsed = time.Since(start)
	return t, nil
}

// sweepAnswerEqual compares one sweep answer against the per-bound DP's
// result or error.
func sweepAnswerEqual(a core.SweepAnswer, res *core.Result, err error) bool {
	if (a.Err == nil) != (err == nil) {
		return false
	}
	if err != nil {
		return a.Err.Error() == err.Error()
	}
	return sameResult(a.Result, res) &&
		a.Result.UsedMeta == res.UsedMeta &&
		a.Result.OriginalSize == res.OriginalSize &&
		a.Result.OriginalVars == res.OriginalVars
}

// sweepAnswersEqual compares two sweep answers for the same bound.
func sweepAnswersEqual(a, b core.SweepAnswer) bool {
	if a.Bound != b.Bound || (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return a.Err.Error() == b.Err.Error()
	}
	return sameResult(a.Result, b.Result)
}
