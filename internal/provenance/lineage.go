package provenance

import (
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/sql"
)

// CaptureLineageN runs a query over tuple-annotated relations (see
// AnnotateTuples) and returns one polynomial per output row: the row's N[X]
// annotation — its how-provenance in the semiring model (joint tuples
// multiply, alternative derivations add). The key of each polynomial is the
// row's rendered values.
//
// This complements Capture, which extracts value-level (aggregation)
// provenance; CaptureLineageN extracts tuple-level provenance and works for
// any query the engine supports, including non-aggregate SPJ queries. The
// row keys render across up to workers goroutines; the query runs on the
// engine's one sequential executor and the set is assembled in row order,
// so it is bit-identical for any worker count.
func CaptureLineageN(query string, cat engine.Catalog, names *polynomial.Names, workers int) (*polynomial.Set, error) {
	out, err := sql.Run(query, cat)
	if err != nil {
		return nil, err
	}
	return renderSet(out.Rows, names, workers, -1, lineageRow)
}
