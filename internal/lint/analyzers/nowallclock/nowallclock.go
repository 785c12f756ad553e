// Package nowallclock keeps wall-clock time and ambient randomness out
// of the deterministic core. The compression, valuation, and storage
// packages must produce bit-identical outputs for identical inputs;
// time.Now in a hot path is also measurement smeared into the library
// (timing belongs to internal/experiments callers — see the removal of
// the valuation.Program timing capture). math/rand is allowed only in
// tests (seeded), internal/experiments, and the datagen workload
// generators whose whole contract is seeded generation.
package nowallclock

import (
	"go/ast"
	"go/types"
	"strconv"

	"github.com/cobra-prov/cobra/internal/lint/analysis"
)

// Analyzer is the wall-clock/randomness checker.
var Analyzer = &analysis.Analyzer{
	Name:      "nowallclock",
	Directive: "wallclock",
	Doc: "time.Now or math/rand in the deterministic core\n\n" +
		"The core packages may not read the wall clock (time.Now/Since/Until)\n" +
		"or import math/rand; both make answers run-dependent. Tests,\n" +
		"internal/experiments, and internal/datagen are exempt. Suppress a\n" +
		"deliberate use with //cobra:wallclock <reason>.",
	Run: run,
}

// watched is the deterministic core: every package on the
// capture→compress→eval path plus its storage and orchestration.
var watched = []string{
	"internal/core",
	"internal/polynomial",
	"internal/abstraction",
	"internal/valuation",
	"internal/polyio",
	"internal/provenance",
	"internal/engine",
	"internal/sql",
	"internal/relation",
	"internal/parallel",
}

// wallClockFuncs are the time package functions that read the clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	if !analysis.PathIn(pass.Pkg.Path(), watched...) {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				if pass.Suppressed(imp.Pos()) {
					continue
				}
				pass.Reportf(imp.Pos(),
					"import of %s in deterministic core package %s: ambient randomness makes answers run-dependent; justify with //cobra:wallclock <reason> if unavoidable",
					path, analysis.RelPkgPath(pass.Pkg.Path()))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.ObjectOf(pkgIdent).(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if pass.Suppressed(sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s in deterministic core package %s: wall-clock reads belong in internal/experiments callers; justify with //cobra:wallclock <reason> if unavoidable",
				sel.Sel.Name, analysis.RelPkgPath(pass.Pkg.Path()))
			return true
		})
	}
	return nil
}
