package experiments

import (
	"time"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// E9Commutation verifies the correctness guarantee end to end: polynomial
// valuation equals query re-execution over modified data, on both datasets.
func E9Commutation(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	t := &Table{
		ID:      "E9",
		Title:   "Commutation: provenance valuation vs query re-execution",
		Columns: []string{"dataset", "query", "scenario", "groups", "max rel err", "holds"},
	}

	// Telephony at a moderated scale (the re-execution side materializes
	// the full join, so this is deliberately smaller than E3).
	custs := 2_000
	if cfg.Quick {
		custs = 400
	}
	names := polynomial.NewNames()
	inst, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: custs, Zips: 4, Months: 12}), names)
	if err != nil {
		return nil, err
	}
	for _, sc := range []struct {
		name string
		a    *valuation.Assignment
	}{
		{"March -20%", telephony.ScenarioMarchMinus20(names)},
		{"Business +10%", telephony.ScenarioBusinessPlus10(names)},
	} {
		rep, err := provenance.CheckCommutation(telephony.RevenueQuery, inst, names, "revenue", sc.a)
		if err != nil {
			return nil, err
		}
		t.AddRow("telephony", "revenue", sc.name, rep.Groups, relStr(rep.Accuracy.MaxRel), yesNo(rep.Ok(1e-9)))
	}

	// TPC-H Q1 and Q6 under a month price change.
	tn := polynomial.NewNames()
	tcat, err := tpch.InstrumentByShipMonth(tpch.Generate(tpch.Config{SF: cfg.TPCHSF}), tn)
	if err != nil {
		return nil, err
	}
	a := valuation.New(tn)
	a.SetVar(tn.Var("mo_1994_06"), 1.25)
	a.SetVar(tn.Var("mo_1995_01"), 0.9)
	for _, q := range []tpch.Query{tpch.Queries[0], tpch.Queries[3]} { // Q1, Q6
		rep, err := provenance.CheckCommutation(q.Prov, tcat, tn, q.ValueCol, a)
		if err != nil {
			return nil, err
		}
		t.AddRow("tpch", q.Name, "mo_1994_06=1.25, mo_1995_01=0.9", rep.Groups, relStr(rep.Accuracy.MaxRel), yesNo(rep.Ok(1e-9)))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
