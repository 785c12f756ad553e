package engine_test

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/sql"
)

// BenchmarkExecute is the layer benchmark of the executor (ROADMAP 1b,
// "engine execute"): one planned query collected per iteration — planning is
// off the clock — in base rows scanned per second, on the shapes
// BENCHMARK.json's capture workloads run: the telephony 3-way hash join
// under a SUM over 10 000 customers, on the concrete catalog (float sums,
// annotations all 1) and on the instrumented one (a symbolic SUM merging
// 130 k monomials into 11 polynomials), and the seven TPC-H plans of
// capture_tpch at SF 0.01: Q1 and Q6 (scan, date filter and symbolic SUM
// over all of lineitem, no join — the cost of reading and comparing
// cells), Q3, Q5 and Q10 (selective filters under 2, 5 and 3 joins, many
// small groups), Q12 (IN and a date range on lineitem, a CASE under SUM)
// and Q14 (a one-month lineitem range joined to part, LIKE inside CASE).
func BenchmarkExecute(b *testing.B) {
	telNames := polynomial.NewNames()
	tel := telephony.Generate(telephony.Config{Customers: 10_000})
	telInst, err := telephony.InstrumentPrices(tel, telNames)
	if err != nil {
		b.Fatal(err)
	}
	hNames := polynomial.NewNames()
	h := tpch.Generate(tpch.Config{SF: 0.01})
	byMonth, err := tpch.InstrumentByShipMonth(h, hNames)
	if err != nil {
		b.Fatal(err)
	}
	byNation, err := tpch.InstrumentBySupplierNation(h, hNames)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, query string
		cat         engine.Catalog
	}{
		{"telephony/concrete", telephony.RevenueQuery, tel},
		{"telephony/instrumented", telephony.RevenueQuery, telInst},
		{"tpch/Q1", tpch.Q1Prov, byMonth},
		{"tpch/Q6", tpch.Q6Prov, byMonth},
		{"tpch/Q3", tpch.Q3Prov, byMonth},
		{"tpch/Q5", tpch.Q5Prov, byNation},
		{"tpch/Q10", tpch.Q10Prov, byMonth},
		{"tpch/Q12", tpch.Q12Prov, byMonth},
		{"tpch/Q14", tpch.Q14Prov, byMonth},
	} {
		b.Run(c.name, func(b *testing.B) {
			stmt, err := sql.Parse(c.query)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			for _, ref := range stmt.From {
				rows += c.cat[ref.Name].Len()
			}
			plan, err := sql.Plan(stmt, c.cat)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := engine.Collect("result", plan); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
