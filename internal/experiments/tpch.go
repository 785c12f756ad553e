package experiments

import (
	"errors"
	"fmt"
	"time"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// E8TPCH runs the TPC-H demo phase: capture provenance for each benchmark
// query under the ship-month instrumentation (nation instrumentation for
// Q5), compress with the matching tree at two bounds, and report sizes,
// variables and assignment speedups.
func E8TPCH(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	cat := tpch.Generate(tpch.Config{SF: cfg.TPCHSF})

	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("TPC-H provenance compression (SF %g)", cfg.TPCHSF),
		Columns: []string{"query", "tree", "groups", "size", "vars", "bound", "compressed", "meta vars (used)", "speedup"},
	}

	for _, q := range tpch.Queries {
		var (
			inst engine.Catalog
			err  error
		)
		names := polynomial.NewNames()
		treeName := "date"
		if q.Name == "Q5" {
			inst, err = tpch.InstrumentBySupplierNation(cat, names)
		} else {
			inst, err = tpch.InstrumentByShipMonth(cat, names)
		}
		if err != nil {
			return nil, err
		}
		set, err := provenance.Capture(q.Prov, inst, names, q.ValueCol)
		if err != nil {
			return nil, err
		}
		if set.Size() == 0 {
			t.AddRow(q.Name, treeName, set.Len(), 0, 0, "-", "-", "-", "-")
			continue
		}
		tree := tpch.DateTree(names)
		if q.Name == "Q5" {
			tree = tpch.NationRegionTree(names)
			treeName = "nation"
		}

		fullProg := valuation.Compile(set)
		vals := valuation.New(names).Dense(names.Len())
		// iters 0 lets MeasureSpeedup auto-calibrate; TPC-H provenance at
		// small scale factors is tiny, and fixed low iteration counts would
		// measure scheduler noise.
		iters := 0
		if cfg.Quick {
			iters = 3
		}
		// Bounds interpolate the achievable range [rootSize, size]: the
		// coarsest abstraction cannot merge across output groups, so the
		// root-cut size (≈ #groups) is the floor.
		rootSize := abstractionRootSize(set, tree)
		for _, frac := range []float64{0.5, 0.1} {
			bound := rootSize + int(float64(set.Size()-rootSize)*frac)
			res, err := core.DPSingleTreeSource(set, tree, bound, cfg.Workers)
			if err != nil {
				if errors.Is(err, core.ErrInfeasible) {
					t.AddRow(q.Name, treeName, set.Len(), set.Size(), set.NumVars(), bound, "infeasible", "-", "-")
					continue
				}
				return nil, err
			}
			speedup := "0%" // no compression achieved ⇒ no speedup by definition
			if res.Size < set.Size() {
				comp := valuation.Compile(res.Apply(set))
				tm := cobra.MeasureSpeedup(fullProg, comp, vals, vals, iters)
				speedup = fmt.Sprintf("%.0f%%", tm.Speedup*100)
			}
			t.AddRow(q.Name, treeName, set.Len(), set.Size(), set.NumVars(), bound,
				res.Size, fmt.Sprintf("%d (%d)", res.NumMeta, res.UsedMeta), speedup)
		}
	}
	t.Note("Q5 is instrumented by supplier nation and compressed with the nation→region tree; the rest by ship month with the month→quarter→year tree")
	t.Note("bounds are rootSize + frac·(size - rootSize); 'used' counts meta-variables whose leaves occur in this query's provenance (the date tree spans 84 months, most queries touch fewer)")
	t.Elapsed = time.Since(start)
	return t, nil
}

// abstractionRootSize returns the size of the coarsest abstraction — the
// floor of the achievable range.
func abstractionRootSize(set *polynomial.Set, tree *abstraction.Tree) int {
	return abstraction.Apply(set, 1, tree.RootCut()).Size()
}
