package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// session is the interactive state: the provenance dataset, the current
// abstraction, the analyst's assignment, and explicit meta overrides.
// The tradeoff curve behind the bound slider lives on the Dataset handle:
// the DP runs once, lazily, and every `bound`/`sweep`/`frontier` command
// afterwards is a memoized-curve lookup instead of a recompression.
type session struct {
	names *polynomial.Names
	set   *cobra.Set
	tree  *cobra.Tree
	ds    *cobra.Dataset

	cut          abstraction.Cut
	leafAssign   *valuation.Assignment // values on original variables
	metaOverride *valuation.Assignment // explicit values on meta-variables
}

func newSession(names *polynomial.Names, set *cobra.Set, tree *cobra.Tree) *session {
	// OpenDataset only fails on a nil source, which callers never pass.
	ds, err := cobra.OpenDataset("repl", set, cobra.Forest{tree}, cobra.Options{})
	if err != nil {
		panic(err)
	}
	return &session{
		names:        names,
		set:          set,
		tree:         tree,
		ds:           ds,
		cut:          tree.LeafCut(),
		leafAssign:   valuation.New(names),
		metaOverride: valuation.New(names),
	}
}

// curve returns the dataset's frontier; the Dataset memoizes it.
func (s *session) curve() ([]cobra.FrontierPoint, error) {
	return s.ds.Frontier(context.Background())
}

// effective combines induced meta defaults with explicit overrides.
func (s *session) effective() *valuation.Assignment {
	a := cobra.Induced(s.leafAssign, s.cut)
	for _, item := range s.metaOverride.Items() {
		a.SetVar(item.Var, item.Value)
	}
	return a
}

// repl runs the interactive loop, reading commands from in and writing to
// out. It returns the first I/O error, never command errors (those are
// printed and the loop continues) — mirroring the demo, where a bad bound
// just shows a message.
func repl(s *session, in io.Reader, out io.Writer) error {
	fmt.Fprintf(out, "COBRA interactive — %d polynomials, %d monomials. Type 'help'.\n",
		s.set.Len(), s.set.Size())
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "cobra> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := strings.ToLower(fields[0]), fields[1:]
		switch cmd {
		case "quit", "exit":
			return nil
		case "help":
			printHelp(out)
		case "tree":
			fmt.Fprint(out, s.tree.String())
		case "frontier":
			s.cmdFrontier(out)
		case "bound":
			s.cmdBound(out, args)
		case "sweep":
			s.cmdSweep(out, args)
		case "cut":
			s.cmdCut(out, args)
		case "refine":
			s.cmdRefineCoarsen(out, args, true)
		case "coarsen":
			s.cmdRefineCoarsen(out, args, false)
		case "set":
			s.cmdSet(out, args)
		case "unset":
			s.cmdUnset(out, args)
		case "scenario":
			s.cmdScenario(out)
		case "show":
			s.cmdShow(out)
		default:
			fmt.Fprintf(out, "unknown command %q; type 'help'\n", cmd)
		}
	}
}

func printHelp(out io.Writer) {
	fmt.Fprint(out, `commands:
  tree                 print the abstraction tree
  frontier             print the size/variables tradeoff curve
  bound N              pick the optimal abstraction for monomial bound N
  sweep N [N ...]      answer a whole batch of bounds from the cached curve
  cut NAME[,NAME...]   set the abstraction to an explicit cut
  refine NODE          split a cut node into its children
  coarsen NODE         merge the cut nodes below NODE into NODE
  set VAR VALUE        assign a value to a variable or meta-variable
  unset VAR            remove an assignment
  scenario             show the current assignment
  show                 evaluate: full vs compressed results, sizes, speedup
  quit
`)
}

func (s *session) cmdFrontier(out io.Writer) {
	frontier, err := s.curve()
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	for _, p := range frontier {
		fmt.Fprintf(out, "  k=%2d  min size %7d  cut %s\n", p.NumMeta, p.MinSize, p.Cut)
	}
}

// cmdBound is the demo's bound slider: the answer comes from the cached
// frontier — no recompression — and is exactly what per-bound compression
// would have chosen, including the infeasibility report.
func (s *session) cmdBound(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: bound N")
		return
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintf(out, "bad bound %q\n", args[0])
		return
	}
	frontier, err := s.curve()
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	p, ok := cobra.BestForBound(frontier, n)
	if !ok {
		fmt.Fprintf(out, "error: %v\n", &cobra.InfeasibleError{Bound: n, MinAchievable: minAchievable(frontier)})
		return
	}
	s.cut = p.Cut
	s.metaOverride = valuation.New(s.names)
	fmt.Fprintf(out, "cut %s: %d monomials, %d meta-variables\n", s.cut, p.MinSize, p.NumMeta)
	s.printMetaDefaults(out)
}

// cmdSweep answers a batch of bounds at once — the slider dragged across
// its whole range for the cost of zero extra DP runs.
func (s *session) cmdSweep(out io.Writer, args []string) {
	if len(args) == 0 {
		fmt.Fprintln(out, "usage: sweep N [N ...]")
		return
	}
	bounds := make([]int, 0, len(args))
	for _, a := range args {
		n, err := strconv.Atoi(a)
		if err != nil {
			fmt.Fprintf(out, "bad bound %q\n", a)
			return
		}
		bounds = append(bounds, n)
	}
	frontier, err := s.curve()
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	for _, n := range bounds {
		p, ok := cobra.BestForBound(frontier, n)
		if !ok {
			fmt.Fprintf(out, "  bound %7d -> infeasible (min achievable %d)\n", n, minAchievable(frontier))
			continue
		}
		fmt.Fprintf(out, "  bound %7d -> size %7d, %d meta-variables, cut %s\n", n, p.MinSize, p.NumMeta, p.Cut)
	}
}

// minAchievable is the smallest size on the curve — the coarsest cut's.
func minAchievable(frontier []cobra.FrontierPoint) int {
	if len(frontier) == 0 {
		return 0
	}
	return frontier[0].MinSize
}

func (s *session) cmdCut(out io.Writer, args []string) {
	if len(args) == 0 {
		fmt.Fprintf(out, "current cut: %s\n", s.cut)
		return
	}
	names := strings.Split(strings.Join(args, ""), ",")
	cut, err := s.tree.CutOf(names...)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	s.cut = cut
	s.metaOverride = valuation.New(s.names)
	fmt.Fprintf(out, "cut %s: %d monomials\n", s.cut, cobra.Apply(s.set, cobra.Options{}, s.cut).Size())
}

func (s *session) cmdRefineCoarsen(out io.Writer, args []string, refine bool) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: refine|coarsen NODE")
		return
	}
	id := s.tree.ByName(args[0])
	if id == abstraction.NoNode {
		fmt.Fprintf(out, "no node named %q\n", args[0])
		return
	}
	var (
		next abstraction.Cut
		err  error
	)
	if refine {
		next, err = s.cut.Refine(id)
	} else {
		next, err = s.cut.Coarsen(id)
	}
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	s.cut = next
	s.metaOverride = valuation.New(s.names)
	fmt.Fprintf(out, "cut %s: %d monomials\n", s.cut, cobra.Apply(s.set, cobra.Options{}, s.cut).Size())
}

// isCutNode reports whether name is one of the current cut's inner nodes.
func (s *session) isCutNode(name string) bool {
	for _, id := range s.cut.Nodes {
		n := s.tree.Node(id)
		if n.Name == name && len(n.Children) > 0 {
			return true
		}
	}
	return false
}

func (s *session) cmdSet(out io.Writer, args []string) {
	if len(args) != 2 {
		fmt.Fprintln(out, "usage: set VAR VALUE")
		return
	}
	val, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		fmt.Fprintf(out, "bad value %q\n", args[1])
		return
	}
	name := args[0]
	if _, ok := s.names.Lookup(name); !ok {
		fmt.Fprintf(out, "unknown variable %q\n", name)
		return
	}
	if s.isCutNode(name) {
		s.metaOverride.MustSet(name, val)
		fmt.Fprintf(out, "meta-variable %s := %g\n", name, val)
		return
	}
	s.leafAssign.MustSet(name, val)
	fmt.Fprintf(out, "%s := %g\n", name, val)
}

func (s *session) cmdUnset(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: unset VAR")
		return
	}
	// Rebuild assignments without the variable (Assignment has no delete;
	// the sparse maps are tiny).
	drop := args[0]
	rebuilt := valuation.New(s.names)
	for _, item := range s.leafAssign.Items() {
		if item.Name != drop {
			rebuilt.SetVar(item.Var, item.Value)
		}
	}
	s.leafAssign = rebuilt
	rebuiltMeta := valuation.New(s.names)
	for _, item := range s.metaOverride.Items() {
		if item.Name != drop {
			rebuiltMeta.SetVar(item.Var, item.Value)
		}
	}
	s.metaOverride = rebuiltMeta
	fmt.Fprintf(out, "unset %s\n", drop)
}

func (s *session) cmdScenario(out io.Writer) {
	items := s.leafAssign.Items()
	meta := s.metaOverride.Items()
	if len(items) == 0 && len(meta) == 0 {
		fmt.Fprintln(out, "(identity assignment)")
		return
	}
	for _, item := range items {
		fmt.Fprintf(out, "  %s = %g\n", item.Name, item.Value)
	}
	for _, item := range meta {
		fmt.Fprintf(out, "  %s = %g (meta override)\n", item.Name, item.Value)
	}
}

func (s *session) printMetaDefaults(out io.Writer) {
	groups := s.cut.GroupedLeaves()
	eff := s.effective()
	for i, id := range s.cut.Nodes {
		n := s.tree.Node(id)
		if len(n.Children) == 0 {
			continue // leaves keep their own values
		}
		var leaves []string
		for _, lv := range groups[i] {
			leaves = append(leaves, s.names.Name(lv))
		}
		sort.Strings(leaves)
		fmt.Fprintf(out, "  %-10s default %.4g  abstracts [%s]\n",
			n.Name, eff.Get(n.Var), strings.Join(leaves, ", "))
	}
}

func (s *session) cmdShow(out io.Writer) {
	comp := cobra.Apply(s.set, cobra.Options{}, s.cut)
	eff := s.effective()
	full := cobra.EvalSet(s.set, s.leafAssign)
	approx := cobra.EvalSet(comp, eff)

	fmt.Fprintf(out, "provenance: full %d monomials, compressed %d (cut %s)\n",
		s.set.Size(), comp.Size(), s.cut)
	max := len(s.set.Keys)
	if max > 10 {
		max = 10
	}
	for i := 0; i < max; i++ {
		fmt.Fprintf(out, "  %-12s full %14.2f   compressed %14.2f   delta %+.4f\n",
			s.set.Keys[i], full[i], approx[i], approx[i]-full[i])
	}
	if len(s.set.Keys) > max {
		fmt.Fprintf(out, "  ... (%d more groups)\n", len(s.set.Keys)-max)
	}
	acc, err := cobra.CompareResults(full, approx)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "max relative deviation: %.3g\n", acc.MaxRel)
	tm := cobra.MeasureSpeedup(cobra.Compile(s.set), cobra.Compile(comp),
		s.leafAssign.Dense(s.names.Len()), eff.Dense(s.names.Len()), 0)
	fmt.Fprintf(out, "assignment time: full %v, compressed %v — speedup %.0f%%\n",
		tm.Full, tm.Compressed, tm.Speedup*100)
}
