package provenance_test

import (
	"fmt"
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
)

// BenchmarkInstrument is the layer benchmark of instrumentation (the step
// before capture: datagen.instrument_s in BENCHMARK.json's terms), in rows
// of TPC-H lineitem instrumented per second at SF 0.01: the cell-level
// ParameterizeColumn by ship month, as tpch.InstrumentByShipMonth calls it,
// and the tuple-level AnnotateTuplesN by (l_orderkey, l_linenumber) at 1 and
// 2 workers. Each iteration interns into a fresh namespace, so the row
// includes the interning a first instrumentation pays. Run with -benchmem:
// B/op is the cost of the clone plus the slabs.
func BenchmarkInstrument(b *testing.B) {
	li := tpch.Generate(tpch.Config{SF: 0.01})["lineitem"]
	month := []provenance.VarSpec{{Prefix: "mo_", Columns: []string{"l_shipmonth"}}}
	line := provenance.VarSpec{Prefix: "t", Columns: []string{"l_orderkey", "l_linenumber"}}

	run := func(name string, instrument func(*polynomial.Names) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := instrument(polynomial.NewNames()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(li.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	run("ParameterizeColumn", func(names *polynomial.Names) error {
		_, err := provenance.ParameterizeColumn(li, "l_extendedprice", month, names)
		return err
	})
	for _, w := range []int{1, 2} {
		run(fmt.Sprintf("AnnotateTuplesN/workers=%d", w), func(names *polynomial.Names) error {
			_, err := provenance.AnnotateTuplesN(li, line, names, w)
			return err
		})
	}
}
