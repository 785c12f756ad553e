// Package cfg builds per-function control-flow graphs over go/ast for
// the COBRA lint suite: basic blocks of statements and a
// reverse-postorder walk. It is the shared dataflow substrate under the
// path-sensitive analyzers (iterclose's close-on-every-path check,
// lockguard's must-hold analysis) — a self-contained miniature of
// golang.org/x/tools/go/cfg, kept stdlib-only like the rest of
// internal/lint.
//
// The graph is intraprocedural and syntactic: no call graph, no
// panic/recover modeling beyond "a panic call terminates the block into
// Exit". Defer statements appear as ordinary nodes in their block AND
// are collected in Graph.Defers, because deferred calls run at every
// function exit — analyzers that care (lockguard ignores deferred
// Unlocks for the kill set, iterclose accepts a deferred Close for
// every path) consult the collected list instead of block order.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal sequence of statements (and
// branch-condition expressions) with a single entry at the top.
// Nodes holds the statements in execution order; conditions of if/for
// statements appear as bare ast.Expr nodes, and a range statement's
// per-iteration assignment is represented by the *ast.RangeStmt itself
// sitting in the loop-head block.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// Panic marks a block terminated by a call to panic: its edge to
	// Exit is a crash, not a return, and path-sensitive analyzers may
	// choose not to report resource leaks along it.
	Panic bool
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	Exit  *Block // pseudo-block: every return (and the fall-off end) leads here
	// Blocks lists every block in creation order, Entry first, Exit
	// last. Blocks unreachable from Entry (code after return) are kept.
	Blocks []*Block

	// Defers collects every defer statement in the body, in source
	// order. Deferred calls run at each exit from the function.
	Defers []*ast.DeferStmt

	thenBlocks map[*ast.IfStmt]*Block
}

// ThenBlock returns the entry block of an if statement's then-branch —
// the edge analyzers skip when the if is a guard whose then-branch
// handles a failure (iterclose's `if err := it.Open(); err != nil`
// shape) — or nil if the statement is not in this graph.
func (g *Graph) ThenBlock(s *ast.IfStmt) *Block { return g.thenBlocks[s] }

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g: &Graph{
			thenBlocks: make(map[*ast.IfStmt]*Block),
		},
		labels:    make(map[string]*Block),
		gotoWaits: make(map[string][]*Block),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = &Block{}
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is a return.
	b.jump(b.cur, b.g.Exit)
	// Unresolved gotos (malformed source) fall through to Exit so the
	// graph stays connected.
	for _, blocks := range b.gotoWaits {
		for _, from := range blocks {
			b.jump(from, b.g.Exit)
		}
	}
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

// ctx is one enclosing breakable/continuable construct.
type ctx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type builder struct {
	g   *Graph
	cur *Block

	ctxs      []ctx
	labels    map[string]*Block   // label -> target block (for goto)
	gotoWaits map[string][]*Block // forward gotos waiting for their label

	// pendingLabel is the label of the labeled statement being built,
	// consumed by the next loop/switch so `break L`/`continue L` resolve.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) jump(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being entered.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur.Panic = true
			b.jump(b.cur, b.g.Exit)
			b.cur = b.newBlock()
		}

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cur, b.g.Exit)
		b.cur = b.newBlock()

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock()
		b.g.thenBlocks[s] = then
		b.jump(cond, then)
		b.cur = then
		b.stmt(s.Body)
		afterThen := b.cur
		if s.Else != nil {
			els := b.newBlock()
			b.jump(cond, els)
			b.cur = els
			b.stmt(s.Else)
			afterElse := b.cur
			join := b.newBlock()
			b.jump(afterThen, join)
			b.jump(afterElse, join)
			b.cur = join
		} else {
			join := b.newBlock()
			b.jump(afterThen, join)
			b.jump(cond, join)
			b.cur = join
		}

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.jump(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		b.jump(head, body)
		exit := b.newBlock()
		if s.Cond != nil {
			b.jump(head, exit)
		}
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.jump(post, head)
			continueTo = post
		}
		b.ctxs = append(b.ctxs, ctx{label: label, breakTo: exit, continueTo: continueTo})
		b.cur = body
		b.stmt(s.Body)
		b.jump(b.cur, continueTo)
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		// X is evaluated once, before the loop.
		b.add(s.X)
		head := b.newBlock()
		// The per-iteration key/value assignment is the RangeStmt node
		// itself, living in the head.
		head.Nodes = append(head.Nodes, s)
		b.jump(b.cur, head)
		body := b.newBlock()
		exit := b.newBlock()
		b.jump(head, body)
		b.jump(head, exit)
		b.ctxs = append(b.ctxs, ctx{label: label, breakTo: exit, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.jump(b.cur, head)
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		b.cur = exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		exit := b.newBlock()
		b.ctxs = append(b.ctxs, ctx{label: label, breakTo: exit})
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.jump(sel, cb)
			b.cur = cb
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jump(b.cur, exit)
		}
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		if len(s.Body.List) == 0 {
			b.jump(sel, exit)
		}
		b.cur = exit

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.jump(b.cur, lb)
		b.labels[s.Label.Name] = lb
		for _, from := range b.gotoWaits[s.Label.Name] {
			b.jump(from, lb)
		}
		delete(b.gotoWaits, s.Label.Name)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findCtx(s, false); t != nil {
				b.jump(b.cur, t)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.findCtx(s, true); t != nil {
				b.jump(b.cur, t)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			if t, ok := b.labels[s.Label.Name]; ok {
				b.jump(b.cur, t)
			} else {
				b.gotoWaits[s.Label.Name] = append(b.gotoWaits[s.Label.Name], b.cur)
			}
			b.cur = b.newBlock()
		}
		// FALLTHROUGH is handled by switchStmt.

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt:
		// straight-line nodes.
		if _, ok := s.(*ast.EmptyStmt); !ok {
			b.add(s)
		}
	}
}

// switchStmt builds value and type switches: every case-clause block is
// a successor of the switch head (condition evaluation order is not
// modeled), fallthrough chains a clause into the next one.
func (b *builder) switchStmt(s ast.Stmt) {
	label := b.takeLabel()
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		clauses = s.Body.List
	}
	head := b.cur
	exit := b.newBlock()
	// Pre-create the clause blocks so fallthrough can target clause i+1.
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		blocks[i] = b.newBlock()
		b.jump(head, blocks[i])
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.jump(head, exit)
	}
	b.ctxs = append(b.ctxs, ctx{label: label, breakTo: exit})
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.cur = blocks[i]
		body := cc.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				body = body[:n-1]
			}
		}
		b.stmtList(body)
		if fallsThrough && i+1 < len(blocks) {
			b.jump(b.cur, blocks[i+1])
		} else {
			b.jump(b.cur, exit)
		}
	}
	b.ctxs = b.ctxs[:len(b.ctxs)-1]
	b.cur = exit
}

// findCtx resolves the target of a break (continueWanted=false) or
// continue (true), honoring an optional label.
func (b *builder) findCtx(s *ast.BranchStmt, continueWanted bool) *Block {
	for i := len(b.ctxs) - 1; i >= 0; i-- {
		c := b.ctxs[i]
		if s.Label != nil && c.label != s.Label.Name {
			continue
		}
		if continueWanted {
			if c.continueTo == nil {
				continue // break-only ctx (switch/select) can't continue
			}
			return c.continueTo
		}
		return c.breakTo
	}
	return nil
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder of a depth-first walk — the order forward dataflow
// analyses iterate in (every block after as many of its predecessors
// as the loop structure allows).
func (g *Graph) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
