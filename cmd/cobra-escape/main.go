// Command cobra-escape gates heap-escape growth on the solve path. It
// compiles each hot package (the same list the hotalloc analyzer binds,
// see internal/lint/analyzers/hotalloc) with -gcflags=-m=2, parses the
// compiler's escape diagnostics into a per-package, per-function
// inventory, writes it to ESCAPES.json, and diffs it against the
// checked-in budget:
//
//	cobra-escape                # gate: fail if any function exceeds its budget
//	cobra-escape -update        # rewrite escape_budget.json from the current tree
//	cobra-escape internal/sql   # gate a subset of the hot packages
//
// The budget is a ratchet, not a quota: -update after a fix lowers the
// recorded counts, and any later change that adds a heap-escape site to
// a budgeted function fails CI with the exact positions. The compiler's
// diagnostics are replayed from the build cache, so a warm run is cheap.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"github.com/cobra-prov/cobra/internal/lint/analyzers/hotalloc"
)

// PackageEscapes is the inventory of one package: distinct escape sites
// grouped by enclosing function.
type PackageEscapes struct {
	Total     int            `json:"total"`
	Functions map[string]int `json:"functions"`
}

// Inventory maps module-relative package paths to their escape counts.
// The same shape serves ESCAPES.json and escape_budget.json.
type Inventory struct {
	Packages map[string]PackageEscapes `json:"packages"`
}

func main() {
	update := flag.Bool("update", false, "rewrite the budget file from the current inventory")
	budgetPath := flag.String("budget", "escape_budget.json", "budget file, relative to the module root")
	outPath := flag.String("out", "ESCAPES.json", "inventory output, relative to the module root (empty to skip)")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatalf("%v", err)
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = hotalloc.HotPackages
	}

	inv := Inventory{Packages: make(map[string]PackageEscapes, len(pkgs))}
	sitesByFunc := make(map[string]map[string][]Site, len(pkgs))
	for _, pkg := range pkgs {
		sites, err := compileEscapes(root, pkg)
		if err != nil {
			fatalf("%s: %v", pkg, err)
		}
		// Compiling a package also instantiates the generic code of the
		// packages it imports, and reports that code's sites again: a
		// site belongs to the package its file is in.
		sites = slices.DeleteFunc(sites, func(s Site) bool { return filepath.Dir(s.File) != pkg })
		byFunc := attribute(root, sites)
		fns := make(map[string]int, len(byFunc))
		for name, ss := range byFunc {
			fns[name] = len(ss)
		}
		inv.Packages[pkg] = PackageEscapes{Total: len(sites), Functions: fns}
		sitesByFunc[pkg] = byFunc
	}

	if *outPath != "" {
		if err := writeJSON(filepath.Join(root, *outPath), inv); err != nil {
			fatalf("%v", err)
		}
	}
	if *update {
		if err := writeJSON(filepath.Join(root, *budgetPath), inv); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("cobra-escape: budget rewritten: %s\n", *budgetPath)
		return
	}

	budget, err := readBudget(filepath.Join(root, *budgetPath))
	if err != nil {
		fatalf("%v (run cobra-escape -update to record the current tree)", err)
	}
	violations := diff(inv, budget, sitesByFunc)
	if len(violations) > 0 {
		fmt.Fprint(os.Stderr, strings.Join(violations, "\n"))
		fmt.Fprintf(os.Stderr, "\ncobra-escape: hot packages gained heap-escape sites; fix them or re-baseline with -update\n")
		os.Exit(1)
	}
	total := 0
	for _, pe := range inv.Packages {
		total += pe.Total
	}
	fmt.Printf("cobra-escape: %d packages within budget (%d escape sites)\n", len(pkgs), total)
}

// moduleRoot resolves the directory holding go.mod, so the tool works
// from any subdirectory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

// compileEscapes builds one package with escape diagnostics enabled and
// parses the distinct heap-escape sites out of the compiler output. The
// -gcflags value applies only to the named package, so dependency builds
// stay quiet; on a warm build cache the diagnostics are replayed without
// recompiling.
func compileEscapes(root, pkg string) ([]Site, error) {
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=-m=2", "./"+pkg)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build failed: %v\n%s", err, stderr.String())
	}
	return parseEscapes(&stderr)
}

// readBudget loads the checked-in budget inventory.
func readBudget(path string) (Inventory, error) {
	var b Inventory
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %v", path, err)
	}
	return b, nil
}

// diff reports every function whose escape count exceeds its budget,
// with the offending positions. Functions absent from the budget default
// to zero: new escape sites in new code must be budgeted deliberately.
func diff(inv, budget Inventory, sitesByFunc map[string]map[string][]Site) []string {
	var out []string
	pkgs := make([]string, 0, len(inv.Packages))
	for pkg := range inv.Packages {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		cur := inv.Packages[pkg]
		allowed := budget.Packages[pkg] // zero value when unbudgeted
		fns := make([]string, 0, len(cur.Functions))
		for name := range cur.Functions {
			fns = append(fns, name)
		}
		sort.Strings(fns)
		for _, name := range fns {
			n, max := cur.Functions[name], allowed.Functions[name]
			if n <= max {
				continue
			}
			out = append(out, fmt.Sprintf("%s: %s: %d heap-escape sites, budget %d (+%d)",
				pkg, name, n, max, n-max))
			for _, s := range sitesByFunc[pkg][name] {
				out = append(out, fmt.Sprintf("\t%s:%d:%d: %s", s.File, s.Line, s.Col, s.Expr))
			}
		}
	}
	return out
}

// writeJSON marshals v deterministically (sorted keys, trailing newline).
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cobra-escape: "+format+"\n", args...)
	os.Exit(1)
}
