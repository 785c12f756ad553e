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

// E11Forest compresses the telephony provenance over TWO abstraction trees
// — the Figure-2 plans tree and the Section-4 quarter tree over months
// ("a natural abstraction tree would consist of quarter meta-variables
// q1...q4") — using coordinate descent, and compares it against compressing
// each dimension alone at the same bound.
func E11Forest(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	plans := telephony.PlansTree(names)
	months := telephony.MonthsTree(names, 12)
	size := set.Size()

	t := &Table{
		ID:      "E11",
		Title:   fmt.Sprintf("Two-dimensional abstraction: plans × quarters (original size %d)", size),
		Columns: []string{"bound (frac)", "strategy", "size", "total vars", "plans cut", "months cut"},
	}

	fractions := []float64{0.5, 0.25, 0.1, 0.02}
	if cfg.Quick {
		fractions = []float64{0.5, 0.1}
	}
	for _, f := range fractions {
		bound := int(float64(size) * f)

		// Forest descent over both trees.
		fd, err := core.ForestDescentSource(set, abstraction.Forest{plans, months}, bound, 0, cfg.Workers)
		if err == nil {
			t.AddRow(fmt.Sprintf("%.2f", f), "plans+months", fd.Size, fd.NumMeta,
				cutBrief(fd.Cuts[0]), cutBrief(fd.Cuts[1]))
		} else if errors.Is(err, core.ErrInfeasible) {
			t.AddRow(fmt.Sprintf("%.2f", f), "plans+months", "infeasible", "-", "-", "-")
		} else {
			return nil, err
		}

		// Single-tree alternatives at the same bound.
		for _, alt := range []struct {
			name string
			tree *abstraction.Tree
		}{{"plans only", plans}, {"months only", months}} {
			res, err := core.DPSingleTreeSource(set, alt.tree, bound, cfg.Workers)
			if err != nil {
				if errors.Is(err, core.ErrInfeasible) {
					t.AddRow(fmt.Sprintf("%.2f", f), alt.name, "infeasible", "-", "-", "-")
					continue
				}
				return nil, err
			}
			pc, mc := cutBrief(res.Cuts[0]), "(leaves)"
			if alt.name == "months only" {
				pc, mc = "(leaves)", cutBrief(res.Cuts[0])
			}
			t.AddRow(fmt.Sprintf("%.2f", f), alt.name, res.Size, res.NumMeta, pc, mc)
		}
	}
	t.Note("grouping along both dimensions multiplies the merge effect: size = |plans cut| × |months cut| per zip, so the forest reaches bounds no single tree can")
	t.Elapsed = time.Since(start)
	return t, nil
}

// cutBrief renders a cut compactly: the node list up to 6 names.
func cutBrief(c abstraction.Cut) string {
	names := c.Names()
	if len(names) > 6 {
		return fmt.Sprintf("{%s, ... %d nodes}", names[0], len(names))
	}
	return c.String()
}
