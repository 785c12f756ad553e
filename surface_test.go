package cobra_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeSurface pins the shape of the facade: one name per capability.
// cobra.go may export at most 38 top-level functions, none of them
// deprecated, and never both X and XWith — a second signature for the same
// algorithm is folded into the first, not added beside it.
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cobra.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
			exported[fn.Name.Name] = true
		}
	}
	if len(exported) > 38 {
		t.Errorf("cobra.go exports %d top-level functions, want <= 38", len(exported))
	}
	for name := range exported {
		if base, ok := strings.CutSuffix(name, "With"); ok && exported[base] {
			t.Errorf("cobra.go exports both %s and %s", base, name)
		}
	}
	marker := "Deprecated" + ":" // split so that a grep for the marker over *.go stays empty
	for _, group := range file.Comments {
		if strings.Contains(group.Text(), marker) {
			t.Errorf("%s: a comment carries the %s marker", fset.Position(group.Pos()), marker)
		}
	}
}

// TestLibraryDoesNotLinkTheHarness: no non-test file of the root package
// imports the experiment runners or the data generators, so importing cobra
// links neither. The harness depends on the library (E3/E5/E8 call
// MeasureSpeedup), never the other way round.
func TestLibraryDoesNotLinkTheHarness(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if strings.HasSuffix(path, "/internal/experiments") || strings.Contains(path, "/internal/datagen/") {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
