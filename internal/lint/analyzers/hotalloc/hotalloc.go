// Package hotalloc flags per-iteration allocation patterns inside loops
// of the hot packages. The solve paths were allocation-bound when it was
// written (5.0M allocs/op on E15 streaming capture, 1.35M on E8 TPC-H —
// badly enough that adding workers made compression SLOWER), so
// allocations that recur every loop iteration are the repo's dominant
// performance bug class; this analyzer finds them mechanically and keeps
// them from creeping back.
//
// Inside every loop detected on the function's control-flow graph
// (internal/lint/cfg — for/range and goto-formed loops alike), in the
// hot packages only, the analyzer reports:
//
//   - fmt.Sprintf / Sprint / Sprintln / Errorf / Appendf calls — one
//     format-machinery allocation per iteration;
//   - string concatenation (`+` / `+=` on strings) — a fresh string per
//     iteration; use a reused builder or byte scratch;
//   - []byte(string) and string([]byte) conversions — a copy per
//     iteration;
//   - append to a slice declared inside the loop without preallocated
//     capacity — the slice regrows from nil every iteration;
//   - reference allocations (&T{...}, slice/map composite literals,
//     make, new, closures) that escape the loop body — stored outside
//     the loop, appended to an accumulator, passed to a call or sent on
//     a channel — and therefore cannot be stack-allocated or reused.
//
// Allocation that is genuinely amortized (a per-shard buffer in a
// shard-at-a-time pass, a closure handed to the worker pool once per
// batch) carries //cobra:hotalloc <reason>.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"github.com/cobra-prov/cobra/internal/lint/analysis"
	"github.com/cobra-prov/cobra/internal/lint/cfg"
)

// Analyzer is the hot-loop allocation checker.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Directive: "hotalloc",
	Doc: "per-iteration allocation inside a hot-package loop\n\n" +
		"Loops in the hot packages (polynomial, core, abstraction, valuation,\n" +
		"sql, engine, provenance) may not allocate per iteration: no fmt\n" +
		"formatting, string concatenation, []byte<->string conversions,\n" +
		"uncapped loop-local append targets, or escaping reference\n" +
		"allocations. Suppress deliberate amortized allocation with\n" +
		"//cobra:hotalloc <reason>.",
	Run: run,
}

// HotPackages are the solve-path packages the allocation discipline
// binds; everything else (cmd, serve,
// experiments, datagen) may allocate freely.
var HotPackages = []string{
	"internal/polynomial",
	"internal/core",
	"internal/abstraction",
	"internal/valuation",
	"internal/sql",
	"internal/engine",
	"internal/provenance",
}

// fmtAllocFuncs are the fmt entry points that allocate per call.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathIn(pass.Pkg.Path(), HotPackages...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	if analysis.IsTestFile(pass.Fset, fd.Pos()) {
		return
	}
	g := cfg.New(fd.Body)
	loops := g.Loops()
	if len(loops) == 0 {
		return
	}
	outer := outermost(loops)
	parents := parentMap(fd.Body)
	c := &checker{
		pass:      pass,
		parents:   parents,
		reported:  make(map[token.Pos]bool),
		allocVars: make(map[types.Object]ast.Node),
	}
	for _, l := range outer {
		c.loop = l
		for _, root := range loopRoots(l) {
			c.scan(root)
		}
	}
}

// outermost drops loops nested inside another loop's block set, so each
// region is scanned once (nested statements are still in scope through
// the outer loop's subtree).
func outermost(loops []*cfg.Loop) []*cfg.Loop {
	var out []*cfg.Loop
	for _, l := range loops {
		nested := false
		for _, o := range loops {
			if o != l && o.Blocks[l.Head] && !l.Blocks[o.Head] {
				nested = true
				break
			}
		}
		if !nested {
			out = append(out, l)
		}
	}
	return out
}

// loopRoots returns the AST roots to scan for a loop: the per-iteration
// parts of a structural loop (cond, post, body — the range expression
// runs once), or the raw block nodes of a goto-formed loop.
func loopRoots(l *cfg.Loop) []ast.Node {
	switch s := l.Stmt.(type) {
	case *ast.ForStmt:
		var roots []ast.Node
		if s.Cond != nil {
			roots = append(roots, s.Cond)
		}
		if s.Post != nil {
			roots = append(roots, s.Post)
		}
		return append(roots, s.Body)
	case *ast.RangeStmt:
		return []ast.Node{s.Body}
	default:
		var roots []ast.Node
		for b := range l.Blocks {
			for _, n := range b.Nodes {
				if r, ok := n.(*ast.RangeStmt); ok {
					n = r.X
				}
				roots = append(roots, n)
			}
		}
		return roots
	}
}

// onExitPath reports whether n sits under a return statement or a
// panic call: that code runs at most once, when the loop is left, so it
// is not a per-iteration cost.
func (c *checker) onExitPath(n ast.Node) bool {
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		switch p := p.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := p.Fun.(*ast.Ident); ok {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return true
				}
			}
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

// parentMap records each node's syntactic parent within body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

type checker struct {
	pass     *analysis.Pass
	parents  map[ast.Node]ast.Node
	loop     *cfg.Loop
	reported map[token.Pos]bool

	// allocVars maps loop-local variables to the fresh reference
	// allocation they were := bound to, so indirect retention
	// (`row := make(...); rows = append(rows, row)`) is traced back to
	// the allocation site.
	allocVars map[types.Object]ast.Node
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	if c.pass.Suppressed(pos) {
		c.reported[pos] = true
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// scan walks one loop root, flagging per-iteration allocation patterns.
// FuncLit bodies are not entered: code inside a closure runs when the
// closure is called, not per loop iteration (the closure itself is
// checked as an escaping allocation). Allocation on a return or panic
// path executes at most once per loop — it is the exit, not an
// iteration — and is exempt throughout.
func (c *checker) scan(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !c.onExitPath(n) {
				c.refAlloc(n, "closure")
			}
			return false
		case *ast.CallExpr:
			if !c.onExitPath(n) {
				c.call(n)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && c.isString(n) && !c.isConst(n) && !c.onExitPath(n) {
				c.report(n.OpPos, "string concatenation allocates every iteration of this loop: build into a strings.Builder or byte scratch hoisted out of the loop")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && c.isString(n.Lhs[0]) {
				c.report(n.TokPos, "string += allocates every iteration of this loop: build into a strings.Builder or byte scratch hoisted out of the loop")
			}
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if alloc := refAllocExpr(c.pass, n.Rhs[i]); alloc != nil {
						if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
							c.allocVars[obj] = alloc
						}
					}
				}
			}
		case *ast.CompositeLit:
			if isRefLiteral(c.pass, n) {
				c.refAlloc(n, describeLit(c.pass, n))
				return true
			}
			// &T{...}: judged at the unary & via refAlloc below.
			if p, ok := c.parents[n].(*ast.UnaryExpr); ok && p.Op == token.AND {
				c.refAlloc(p, "&"+types.ExprString(n.Type)+"{...}")
			}
		}
		return true
	})
}

// call inspects one call expression for the fmt, conversion, make/new
// and append patterns.
func (c *checker) call(call *ast.CallExpr) {
	// fmt.Sprintf and friends.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" && fmtAllocFuncs[sel.Sel.Name] {
			c.report(call.Pos(), "fmt.%s allocates every iteration of this loop: hoist the formatting out of the hot path or build into a reused buffer", sel.Sel.Name)
			return
		}
	}
	// Type conversions []byte(s) / string(b).
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := c.pass.TypesInfo.TypeOf(call.Args[0])
		if from != nil && !c.isConst(call.Args[0]) {
			if isByteSlice(to) && isStringType(from.Underlying()) {
				c.report(call.Pos(), "[]byte(string) conversion copies every iteration of this loop: reuse a scratch buffer or operate on the string directly")
			} else if isStringType(to) && isByteSlice(from.Underlying()) && !c.mapReadKey(call) {
				c.report(call.Pos(), "string([]byte) conversion copies every iteration of this loop: keep the bytes or intern outside the loop")
			}
		}
		return
	}
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "append":
				c.append(call)
			case "make", "new":
				c.refAlloc(call, obj.Name()+"(...)")
			}
			return
		}
	}
}

// mapReadKey reports whether conv is the key of a map READ,
// `m[string(b)]` on the right-hand side: the compiler elides that
// conversion (no allocation), so only map writes pay for the key.
func (c *checker) mapReadKey(conv *ast.CallExpr) bool {
	ix, ok := c.parents[conv].(*ast.IndexExpr)
	if !ok || ix.Index != ast.Expr(conv) {
		return false
	}
	t := c.pass.TypesInfo.TypeOf(ix.X)
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	if as, ok := c.parents[ix].(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if lhs == ast.Expr(ix) {
				return false // map write: the key is retained
			}
		}
	}
	return true
}

// append flags growing a slice that is declared inside the loop without
// preallocated capacity: every iteration regrows it from scratch.
func (c *checker) append(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	base, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := c.pass.TypesInfo.Uses[base].(*types.Var)
	if !ok {
		return
	}
	if !c.loop.Contains(obj.Pos()) {
		// The accumulator outlives the loop: any loop-local allocation
		// appended to it is retained, even through a variable.
		for _, a := range call.Args[1:] {
			id, ok := a.(*ast.Ident)
			if !ok {
				continue
			}
			if alloc, tracked := c.allocVars[c.pass.TypesInfo.Uses[id]]; tracked {
				c.report(alloc.Pos(), "%s is allocated every iteration of this loop and retained by append to %s, which outlives the loop: hoist or reuse it (or justify amortization with //cobra:hotalloc <reason>)", id.Name, obj.Name())
			}
		}
		return
	}
	if decl, uncapped := c.declOf(obj); uncapped {
		c.report(decl.Pos(), "%s is declared in this loop without capacity and grown by append: preallocate (make with capacity) or hoist a reused scratch slice out of the loop", obj.Name())
	}
}

// refAllocExpr returns the allocation node if e is a fresh reference
// allocation: make/new, a slice/map/struct composite literal (possibly
// behind &), or a closure.
func refAllocExpr(pass *analysis.Pass, e ast.Expr) ast.Node {
	switch e := e.(type) {
	case *ast.FuncLit:
		return e
	case *ast.CompositeLit:
		if isRefLiteral(pass, e) {
			return e
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := e.X.(*ast.CompositeLit); ok {
				return e
			}
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
				return e
			}
		}
	}
	return nil
}

// declOf locates obj's declaring node within the function and reports
// whether it starts with no preallocated capacity: `var s []T`,
// `s := []T{}`, or `s := make([]T, 0)`.
func (c *checker) declOf(obj *types.Var) (ast.Node, bool) {
	for id, o := range c.pass.TypesInfo.Defs {
		if o != obj {
			continue
		}
		parent := c.parents[id]
		switch p := parent.(type) {
		case *ast.ValueSpec:
			if len(p.Values) == 0 {
				return id, true // var s []T
			}
			for i, name := range p.Names {
				if name == id && i < len(p.Values) {
					return id, uncappedInit(c.pass, p.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range p.Lhs {
				if lhs == ast.Expr(id) && i < len(p.Rhs) {
					return id, uncappedInit(c.pass, p.Rhs[i])
				}
			}
		}
		return id, false
	}
	return nil, false
}

// uncappedInit reports whether an initializer allocates an empty,
// capacity-less slice: `[]T{}`, `make([]T, 0)`, or a nil conversion.
func uncappedInit(pass *analysis.Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		t := pass.TypesInfo.TypeOf(e)
		if t == nil {
			return false
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(e.Args) <= 2 {
			t := pass.TypesInfo.TypeOf(e)
			if t == nil {
				return false
			}
			if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
				return false
			}
			if len(e.Args) == 1 {
				return true // make([]T) is invalid anyway
			}
			tv := pass.TypesInfo.Types[e.Args[1]]
			return tv.Value != nil && tv.Value.String() == "0"
		}
	}
	return false
}

// refAlloc flags a reference-kind allocation (&T{}, make, new, map or
// slice literal, closure) when it escapes the loop body.
func (c *checker) refAlloc(n ast.Node, what string) {
	how, escapes := c.escapes(n)
	if !escapes {
		return
	}
	c.report(n.Pos(), "%s is allocated every iteration of this loop and %s: hoist it out of the loop or reuse a scratch value (or justify amortization with //cobra:hotalloc <reason>)", what, how)
}

// escapes climbs the parent chain of an allocation expression to decide
// whether the fresh object outlives the iteration: stored outside the
// loop, retained by an accumulator append, passed to a call, or sent on
// a channel. Returns a description of the escape route.
func (c *checker) escapes(n ast.Node) (string, bool) {
	cur := n
	for {
		parent := c.parents[cur]
		if parent == nil {
			return "", false
		}
		switch p := parent.(type) {
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				cur = parent
				continue
			}
			return "", false
		case *ast.ParenExpr, *ast.KeyValueExpr, *ast.CompositeLit:
			cur = parent
			continue
		case *ast.CallExpr:
			// An argument escapes into the callee; the callee itself
			// (an immediately-invoked closure) does not.
			if p.Fun == cur {
				return "", false
			}
			if id, ok := p.Fun.(*ast.Ident); ok {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "append":
						if len(p.Args) > 0 && p.Args[0] != cur {
							return c.appendEscape(p)
						}
						// Appending TO the fresh slice: judged by what
						// happens to the append result, one level up.
						cur = parent
						continue
					case "len", "cap", "copy", "delete", "clear":
						return "", false
					}
				}
			}
			return "is passed to a call made every iteration", true
		case *ast.AssignStmt:
			return c.assignEscape(p, cur)
		case *ast.ValueSpec:
			// var x = alloc: loop-local iff the spec is inside the loop.
			if c.loop.Contains(p.Pos()) {
				return "", false
			}
			return "is bound outside the loop", true
		case *ast.SendStmt:
			if p.Value == cur {
				return "is sent on a channel", true
			}
			return "", false
		case *ast.ReturnStmt, *ast.BranchStmt:
			// Returning/breaking ends the loop: not a per-iteration cost.
			return "", false
		case *ast.IndexExpr:
			if p.Index == cur {
				return "", false
			}
			cur = parent
			continue
		default:
			// Binary expressions, range/if/for clauses, expression
			// statements: the object is consumed within the iteration.
			return "", false
		}
	}
}

// appendEscape judges `append(acc, fresh)`: retained iff the
// accumulator lives outside the loop.
func (c *checker) appendEscape(call *ast.CallExpr) (string, bool) {
	base, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return "is retained by append", true // field/index accumulator
	}
	obj, ok := c.pass.TypesInfo.Uses[base].(*types.Var)
	if !ok {
		return "", false
	}
	if c.loop.Contains(obj.Pos()) {
		return "", false // loop-local accumulator dies with the iteration
	}
	return fmt.Sprintf("is retained by append to %s, which outlives the loop", obj.Name()), true
}

// assignEscape judges `lhs = fresh` (or op-assign): escaping iff the
// destination outlives the iteration — a variable declared outside the
// loop, a field, an index, or a dereference.
func (c *checker) assignEscape(as *ast.AssignStmt, cur ast.Node) (string, bool) {
	idx := -1
	for i, r := range as.Rhs {
		if r == cur {
			idx = i
		}
	}
	if idx < 0 || idx >= len(as.Lhs) {
		// Multi-value RHS or mismatch: be conservative, not noisy.
		return "", false
	}
	switch lhs := as.Lhs[idx].(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return "", false
		}
		var obj types.Object
		if as.Tok == token.DEFINE {
			obj = c.pass.TypesInfo.Defs[lhs]
		} else {
			obj = c.pass.TypesInfo.Uses[lhs]
		}
		if obj == nil {
			return "", false
		}
		if c.loop.Contains(obj.Pos()) {
			return "", false // loop-local binding
		}
		return fmt.Sprintf("is stored in %s, which outlives the loop", lhs.Name), true
	case *ast.SelectorExpr:
		return "is stored in a field", true
	case *ast.IndexExpr:
		return c.indexEscape(lhs)
	case *ast.StarExpr:
		return "is stored through a pointer", true
	default:
		return "", false
	}
}

// indexEscape judges `container[i] = fresh`: escaping iff the container
// outlives the loop.
func (c *checker) indexEscape(ix *ast.IndexExpr) (string, bool) {
	if base, ok := ix.X.(*ast.Ident); ok {
		if obj, ok := c.pass.TypesInfo.Uses[base].(*types.Var); ok && c.loop.Contains(obj.Pos()) {
			return "", false
		}
		return fmt.Sprintf("is stored into %s, which outlives the loop", base.Name), true
	}
	return "is stored into a container", true
}

func (c *checker) isString(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	return t != nil && isStringType(t.Underlying())
}

func (c *checker) isConst(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// isRefLiteral reports whether a composite literal allocates reference
// storage of its own (slice or map backing) as opposed to a plain
// struct/array value copied into place.
func isRefLiteral(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func describeLit(pass *analysis.Pass, lit *ast.CompositeLit) string {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return "composite literal"
	}
	return types.TypeString(t, types.RelativeTo(pass.Pkg)) + "{...}"
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
