package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as the body of a function and returns its graph.
// src is the full file; the graph is built for the function named fn.
func build(t *testing.T, src, fn string) (*token.FileSet, *Graph) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fset, New(fd.Body)
		}
	}
	t.Fatalf("no function %q", fn)
	return nil, nil
}

// nodeText renders a node's source-ish identity for assertions.
func describe(fset *token.FileSet, n ast.Node) string {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if c, ok := n.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok {
				return id.Name + "()"
			}
		}
	case *ast.Ident:
		return n.Name
	}
	return strings.TrimPrefix(strings.TrimPrefix(nodeType(n), "*ast."), "ast.")
}

func nodeType(n ast.Node) string {
	switch n.(type) {
	case *ast.AssignStmt:
		return "assign"
	case *ast.ReturnStmt:
		return "return"
	case *ast.RangeStmt:
		return "range"
	case *ast.DeferStmt:
		return "defer"
	case *ast.BinaryExpr:
		return "cond"
	default:
		return "node"
	}
}

// blockWith returns the block holding a node match accepts.
func blockWith(t *testing.T, g *Graph, match func(ast.Node) bool) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if match(n) {
				return b
			}
		}
	}
	t.Fatalf("no block holds the wanted node")
	return nil
}

func isIncDec(n ast.Node) bool { _, ok := n.(*ast.IncDecStmt); return ok }
func isReturn(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok }
func isRange(n ast.Node) bool  { _, ok := n.(*ast.RangeStmt); return ok }

// isAssign matches an assignment with the given operator (s += i).
func isAssign(tok token.Token) func(ast.Node) bool {
	return func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == tok
	}
}

// isCond matches a branch condition comparing against the named operand
// on its left (i < n has "i").
func isCond(left string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		id, ok := be.X.(*ast.Ident)
		return ok && id.Name == left
	}
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// reaches reports whether to is reachable from from along one or more
// edges; reaches(b, b) is "b is on a cycle".
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	stack := append([]*Block(nil), from.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if !seen[b] {
			seen[b] = true
			stack = append(stack, b.Succs...)
		}
	}
	return false
}

func TestStraightLine(t *testing.T) {
	_, g := build(t, `func f() { x := 1; x++; _ = x }`, "f")
	rpo := g.ReversePostorder()
	if rpo[0] != g.Entry {
		t.Fatalf("RPO must start at entry")
	}
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry block has %d nodes, want 3", len(g.Entry.Nodes))
	}
	// Entry falls through to Exit.
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry succs = %v, want [Exit]", g.Entry.Succs)
	}
}

func TestIfElseJoin(t *testing.T) {
	fset, g := build(t, `
func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`, "f")
	_ = fset
	// Entry (x:=0, cond) branches to then and else; both join; join returns.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("cond block has %d succs, want 2", len(g.Entry.Succs))
	}
	thenB, elseB := g.Entry.Succs[0], g.Entry.Succs[1]
	if len(thenB.Succs) != 1 || len(elseB.Succs) != 1 || thenB.Succs[0] != elseB.Succs[0] {
		t.Fatalf("then/else do not join")
	}
	join := thenB.Succs[0]
	if len(join.Succs) != 1 || join.Succs[0] != g.Exit {
		t.Fatalf("join does not return to exit")
	}
}

func TestThenBlockMapping(t *testing.T) {
	fset, g := build(t, `
func f(c bool) {
	if c {
		println("t")
	}
	println("after")
}`, "f")
	_ = fset
	var ifs *ast.IfStmt
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if s, ok := n.(*ast.IfStmt); ok {
					ifs = s
				}
				return true
			})
		}
	}
	// The if statement itself is decomposed (cond in one block, body in
	// another), so find it from the source instead.
	fset2 := token.NewFileSet()
	f, _ := parser.ParseFile(fset2, "src.go", `package p
func f(c bool) {
	if c {
		println("t")
	}
	println("after")
}`, parser.SkipObjectResolution)
	fd := f.Decls[0].(*ast.FuncDecl)
	ifs = fd.Body.List[0].(*ast.IfStmt)
	g2 := New(fd.Body)
	then := g2.ThenBlock(ifs)
	if then == nil {
		t.Fatalf("no then block recorded")
	}
	found := false
	for _, n := range then.Nodes {
		if es, ok := n.(*ast.ExprStmt); ok {
			if c, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "println" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("then block does not hold the then-branch body")
	}
}

func TestForLoop(t *testing.T) {
	_, g := build(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	head := blockWith(t, g, isCond("i"))
	body := blockWith(t, g, isAssign(token.ADD_ASSIGN))
	post := blockWith(t, g, isIncDec)
	after := blockWith(t, g, isReturn)
	// head -> body -> post -> head is the cycle; head also leaves it.
	if !hasEdge(head, body) || !hasEdge(body, post) || !hasEdge(post, head) {
		t.Fatalf("for loop misses an edge of head -> body -> post -> head")
	}
	if !hasEdge(head, after) {
		t.Fatalf("loop condition has no edge past the loop")
	}
	// The return is outside the cycle.
	if reaches(after, head) {
		t.Fatalf("the statement after the loop flows back into it")
	}
}

func TestRangeLoopAndBreak(t *testing.T) {
	_, g := build(t, `
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		if x < 0 {
			break
		}
		s += x
	}
	return s
}`, "f")
	// The per-iteration assignment is the RangeStmt itself, in the head.
	head := blockWith(t, g, isRange)
	body := blockWith(t, g, isAssign(token.ADD_ASSIGN))
	after := blockWith(t, g, isReturn)
	if !hasEdge(body, head) || !hasEdge(head, after) {
		t.Fatalf("range loop misses its back edge or its exit edge")
	}
	// break leaves the loop: the guard's then-block jumps past it.
	cond := blockWith(t, g, isCond("x"))
	breaks := false
	for _, s := range cond.Succs {
		if hasEdge(s, after) {
			breaks = true
		}
	}
	if !breaks {
		t.Fatalf("break edge out of the loop not found")
	}
}

func TestNestedLoops(t *testing.T) {
	_, g := build(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s++
		}
	}
	return s
}`, "f")
	outer := blockWith(t, g, isCond("i"))
	inner := blockWith(t, g, isCond("j"))
	if !reaches(outer, outer) || !reaches(inner, inner) {
		t.Fatalf("a loop head is not on a cycle")
	}
	// The outer cycle passes through the inner head.
	if !reaches(outer, inner) || !reaches(inner, outer) {
		t.Fatalf("outer loop does not contain inner loop head")
	}
}

func TestGotoLoop(t *testing.T) {
	_, g := build(t, `
func f(n int) int {
	i := 0
top:
	i++
	if i < n {
		goto top
	}
	return i
}`, "f")
	// The labeled block is on a cycle closed by the goto.
	top := blockWith(t, g, isIncDec)
	if !reaches(top, top) {
		t.Fatalf("goto does not close a cycle through its label")
	}
	if reaches(blockWith(t, g, isReturn), top) {
		t.Fatalf("the return flows back to the label")
	}
}

func TestDeferCollection(t *testing.T) {
	_, g := build(t, `
func f(c bool) {
	defer println("a")
	if c {
		defer println("b")
	}
}`, "f")
	if len(g.Defers) != 2 {
		t.Fatalf("collected %d defers, want 2", len(g.Defers))
	}
	// Defers also appear as block nodes in source order.
	count := 0
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				count++
			}
		}
	}
	if count != 2 {
		t.Fatalf("defer nodes in blocks = %d, want 2", count)
	}
}

func TestReturnEndsBlock(t *testing.T) {
	_, g := build(t, `
func f(c bool) int {
	if c {
		return 1
	}
	return 2
}`, "f")
	// Both returns edge into Exit.
	n := 0
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == g.Exit {
				n++
			}
		}
	}
	if n < 2 {
		t.Fatalf("%d edges into exit, want >= 2", n)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	_, g := build(t, `
func f(x int) int {
	s := 0
	switch x {
	case 0:
		s = 1
		fallthrough
	case 1:
		s = 2
	default:
		s = 3
	}
	return s
}`, "f")
	// Find the clause block holding s = 1: its successor must hold s = 2
	// (the fallthrough edge), not the join.
	var c0, c1 *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if bl, ok := as.Rhs[0].(*ast.BasicLit); ok {
					switch bl.Value {
					case "1":
						c0 = b
					case "2":
						c1 = b
					}
				}
			}
		}
	}
	if c0 == nil || c1 == nil {
		t.Fatalf("clause blocks not found")
	}
	found := false
	for _, s := range c0.Succs {
		if s == c1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallthrough edge from case 0 to case 1 missing")
	}
}

func TestSelect(t *testing.T) {
	_, g := build(t, `
func f(a, b chan int) int {
	select {
	case x := <-a:
		return x
	case <-b:
		return 0
	}
}`, "f")
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("select head has %d succs, want 2", len(g.Entry.Succs))
	}
}

func TestPanicBlock(t *testing.T) {
	_, g := build(t, `
func f(c bool) {
	if c {
		panic("boom")
	}
	println("ok")
}`, "f")
	found := false
	for _, b := range g.Blocks {
		if b.Panic {
			found = true
			if len(b.Succs) == 0 || b.Succs[0] != g.Exit {
				t.Fatalf("panic block does not lead to exit")
			}
		}
	}
	if !found {
		t.Fatalf("no panic block marked")
	}
}

func TestContinueTargetsPost(t *testing.T) {
	_, g := build(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			continue
		}
		s += i
	}
	return s
}`, "f")
	// The post block (i++) must have at least two preds: the body end
	// and the continue.
	post := blockWith(t, g, isIncDec)
	if len(post.Preds) < 2 {
		t.Fatalf("post block has %d preds, want >= 2 (fallthrough + continue)", len(post.Preds))
	}
}

func TestLabeledBreak(t *testing.T) {
	_, g := build(t, `
func f(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				break outer
			}
			s++
		}
	}
	return s
}`, "f")
	// break outer: the guard's then-block jumps straight to the block
	// after BOTH loops, which flows back into neither.
	guard := blockWith(t, g, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		return ok && be.Op == token.EQL
	})
	after := blockWith(t, g, isReturn)
	escapes := false
	for _, s := range guard.Succs {
		if hasEdge(s, after) {
			escapes = true
		}
	}
	if !escapes {
		t.Fatalf("break outer does not leave both loops")
	}
	if reaches(after, blockWith(t, g, isCond("i"))) {
		t.Fatalf("the statement after the loops flows back into them")
	}
}

func TestRPOVisitsAllReachable(t *testing.T) {
	fset, g := build(t, `
func f(c bool) int {
	for i := 0; i < 10; i++ {
		if c {
			return i
		}
	}
	return -1
}`, "f")
	_ = fset
	rpo := g.ReversePostorder()
	seen := make(map[*Block]bool, len(rpo))
	for _, b := range rpo {
		if seen[b] {
			t.Fatalf("block %d visited twice", b.Index)
		}
		seen[b] = true
	}
	if !seen[g.Exit] {
		t.Fatalf("RPO misses exit")
	}
	_ = describe
}
