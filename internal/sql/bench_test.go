package sql_test

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/sql"
)

// BenchmarkParsePlan is the layer benchmark of the SQL front end (ROADMAP
// 1b, "sql parse+plan"): the eight statements BENCHMARK.json's capture
// workloads run — the telephony revenue query and the seven TPC-H
// provenance queries — parsed and planned against their catalogs, nothing
// executed, in statements per second. Plan cost does not depend on the
// number of rows, so the catalogs are small.
func BenchmarkParsePlan(b *testing.B) {
	type statement struct {
		text string
		cat  engine.Catalog
	}
	stmts := []statement{{telephony.RevenueQuery, telephony.Generate(telephony.Config{Customers: 100})}}
	h := tpch.Generate(tpch.Config{SF: 0.0005})
	for _, q := range tpch.Queries {
		stmts = append(stmts, statement{q.Prov, h})
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, s := range stmts {
			stmt, err := sql.Parse(s.text)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sql.Plan(stmt, s.cat); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(stmts))*float64(b.N)/b.Elapsed().Seconds(), "statements/s")
}
