// Package analyzers registers the COBRA lint suite: one analyzer per
// invariant the codebase's trustworthiness argument depends on. See
// the package documentation of each sub-package for the invariant and
// its rationale, and doc.go at the module root for the overview.
package analyzers

import (
	"github.com/cobra-prov/cobra/internal/lint/analysis"
	"github.com/cobra-prov/cobra/internal/lint/analyzers/ctxflow"
	"github.com/cobra-prov/cobra/internal/lint/analyzers/determinism"
	"github.com/cobra-prov/cobra/internal/lint/analyzers/iterclose"
	"github.com/cobra-prov/cobra/internal/lint/analyzers/lockguard"
	"github.com/cobra-prov/cobra/internal/lint/analyzers/nogoroutine"
	"github.com/cobra-prov/cobra/internal/lint/analyzers/nowallclock"
	"github.com/cobra-prov/cobra/internal/lint/analyzers/sinkerr"
)

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		nogoroutine.Analyzer,
		iterclose.Analyzer,
		sinkerr.Analyzer,
		ctxflow.Analyzer,
		nowallclock.Analyzer,
		lockguard.Analyzer,
	}
}
