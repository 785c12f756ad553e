package main

import (
	"fmt"
	"math/rand"
	"runtime"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/sql"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// query is one provenance-capturing SQL statement of a capture workload,
// with the catalog it runs on, the tree that compresses its provenance and
// the warm target the what-if phases use.
type query struct {
	name     string
	text     string
	valueCol string
	inst     engine.Catalog // instrumented: the cold path captures from it
	concrete engine.Catalog // un-instrumented: the symbolic-overhead probe
	tree     *abstraction.Tree
	bound    int
	target   *memTarget
	sizes    *sizeCheck
}

// capture is a capture workload: every cold op runs all its queries from
// SQL text to a first what-if answer.
type capture struct {
	names   *polynomial.Names
	queries []*query
	leaves  []*valuation.Assignment
	// startup, if set, is a check to run once before measuring, booked as
	// an operation of its own.
	startup func(x *runner)
}

// captureSet runs one query through the layers the facade's capture calls,
// one span each.
func captureSet(tr *tracer, root int, q *query, names *polynomial.Names) (*polynomial.Set, error) {
	sp := tr.begin(root, "sql", "Parse")
	stmt, err := sql.Parse(q.text)
	tr.end(sp, len(q.text))
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "sql", "Plan")
	plan, err := sql.Plan(stmt, q.inst)
	tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "engine", "Collect")
	out, err := engine.Collect("result", plan)
	if err != nil {
		tr.end(sp, 0)
		return nil, err
	}
	tr.end(sp, len(out.Rows))
	sp = tr.begin(root, "provenance", "FromRelation")
	set, err := provenance.FromRelation(out, names, q.valueCol)
	tr.end(sp, len(out.Rows))
	return set, err
}

func (c *capture) phase(perRound int) phase {
	return phase{name: "cold", perRound: perRound, heavy: true, run: func(x *runner, i int) {
		leaf := c.leaves[i%len(c.leaves)]
		x.timed("cold", func(root int) (func() error, error) {
			answers := make([]*answer, len(c.queries))
			var capturing sample
			for k, q := range c.queries {
				forest := cobra.Forest{q.tree}
				var err error
				if x.tr == nil {
					sw := startWatch()
					ds, cerr := cobra.CaptureDataset(ctx, q.name, q.text, q.inst, c.names, q.valueCol, forest, cobra.Options{})
					if cerr != nil {
						return nil, cerr
					}
					s := sw.stop()
					capturing = sample{wall: capturing.wall + s.wall, cpu: capturing.cpu + s.cpu}
					answers[k], err = facadeTail(x, ds, q.bound, leaf)
					ds.Close()
				} else {
					set, cerr := captureSet(x.tr, root, q, c.names)
					if cerr != nil {
						return nil, cerr
					}
					if _, err = openDataset(x.tr, root, q.name, set, forest, cobra.Options{}); err == nil {
						answers[k], err = layerTail(x.tr, root, set, forest, q.bound, leaf)
					}
				}
				if err != nil {
					return nil, fmt.Errorf("%s: %w", q.name, err)
				}
			}
			if x.tr == nil {
				x.part("capture", capturing)
			}
			return func() error {
				for k, q := range c.queries {
					if err := answers[k].check(q.sizes, q.target.oracle); err != nil {
						return fmt.Errorf("%s: %w", q.name, err)
					}
				}
				return nil
			}, nil
		})
	}}
}

// baseRows counts the rows of the relations a query's FROM clause names.
func baseRows(text string, cat engine.Catalog) (int, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	rows := 0
	for _, ref := range stmt.From {
		rel, ok := cat[ref.Name]
		if !ok {
			return 0, fmt.Errorf("no relation %q", ref.Name)
		}
		rows += len(rel.Rows)
	}
	return rows, nil
}

// warm captures every query once, fixes its bound halfway between the
// root-cut size and the full size (always feasible, never trivial), and
// warms its targets.
func (c *capture) warm(w *workload, traced bool) error {
	for _, q := range c.queries {
		set, err := provenance.Capture(q.text, q.inst, c.names, q.valueCol)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if set.Size() == 0 {
			return fmt.Errorf("%s captured no provenance", q.name)
		}
		floor := rootCutSize(set, q.tree)
		q.bound = floor + (set.Size()-floor)/2
		if q.target, err = warmUp(q.name, set, q.tree, q.bound, traced); err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		q.sizes = newSizeCheck(set)
		rows, err := baseRows(q.text, q.inst)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		w.rows += rows
		w.monomials += set.Size()
		w.counts["provenance.monomials_out"] += float64(set.Size())
		w.counts["provenance.polys_out"] += float64(set.Len())
		w.counts["engine.result_rows"] += float64(set.Len())
		w.counts["core.cut_size"] += float64(q.target.res.Size)
		w.counts["core.cut_meta_vars"] += float64(q.target.res.NumMeta)
	}
	w.counts["core.compressed_size_ratio"] = ratio(w.counts["core.cut_size"], float64(w.monomials))
	return nil
}

// whatif pools scenarios every query's target answers exactly, and fans a
// scenario out to all targets, concatenating their rows.
func (c *capture) whatif(r *rand.Rand, sc scale) *whatif {
	var (
		cuts       []abstraction.Cut
		trees      abstraction.Forest
		used       []polynomial.Var
		comp, full []evalFn
	)
	seen := map[*abstraction.Tree]bool{}
	for _, q := range c.queries {
		t := q.target
		cuts = append(cuts, t.res.Cuts...)
		used = append(used, t.set.UsedVars()...)
		comp = append(comp, datasetEval(t.comp, t.compProg))
		full = append(full, datasetEval(t.full, t.fullProg))
		if !seen[q.tree] {
			seen[q.tree] = true
			trees = append(trees, q.tree)
		}
	}
	groups := cutGroups(cuts...)
	if len(c.queries) > 1 {
		// Several cuts of one tree: only groups every cut refines are
		// uniform for all of them.
		groups = coarsestGroups(trees, cuts)
	}
	groups = append(groups, contextGroups(used, trees)...)
	q := newWhatif(r, sc, sliderPool, c.names, cuts, groups, groups)
	q.comp, q.full = fanOut(comp), fanOut(full)
	q.oracle = func(a *valuation.Assignment) ([]float64, error) {
		rows, err := q.full(nil, noSpan, 1, []*valuation.Assignment{a})
		if err != nil {
			return nil, err
		}
		return rows[0], nil
	}
	return q
}

// coarsestGroups returns, per tree, the root's children as groups, or the
// whole tree as one group when some cut of that tree is its root cut.
func coarsestGroups(trees abstraction.Forest, cuts []abstraction.Cut) []group {
	var out []group
	for _, t := range trees {
		rooted := false
		for _, c := range cuts {
			if c.Tree == t && len(c.Nodes) == 1 && c.Nodes[0] == t.Root() {
				rooted = true
			}
		}
		if rooted {
			out = append(out, group(t.LeafVars()))
		} else {
			out = append(out, rootChildGroups(abstraction.Forest{t})...)
		}
	}
	return out
}

// fanOut answers on every target in turn; row i is the concatenation of
// the targets' rows i.
func fanOut(fns []evalFn) evalFn {
	if len(fns) == 1 {
		return fns[0]
	}
	return func(tr *tracer, parent, workers int, as []*valuation.Assignment) ([][]float64, error) {
		out := make([][]float64, len(as))
		for _, f := range fns {
			rows, err := f(tr, parent, workers, as)
			if err != nil {
				return nil, err
			}
			for i := range rows {
				out[i] = append(out[i], rows[i]...)
			}
		}
		return out, nil
	}
}

func (c *capture) close() {
	for _, q := range c.queries {
		if q.target != nil {
			q.target.close()
		}
	}
}

// finish wires the shared parts of a capture workload.
func (c *capture) finish(w *workload, r *rand.Rand, sc scale, traced bool, coldPerRound int, n mix) error {
	w.close = c.close
	sw := startWatch()
	err := c.warm(w, traced)
	w.lap("warm", sw)
	if err != nil {
		return err
	}
	var trees abstraction.Forest
	var srcs []polynomial.SetSource
	for _, q := range c.queries {
		trees = append(trees, q.tree)
		srcs = append(srcs, q.target.set)
	}
	// Cold scenarios touch context variables only where there are some;
	// the expand oracle makes any leaf-level scenario checkable.
	c.leaves = coarseScenarios(r, 16, c.queries[0].target.set, trees)
	q := c.whatif(r, sc)
	w.prepare = func(x *runner) error {
		if c.startup != nil {
			c.startup(x)
		}
		return q.prepare(w, srcs...)
	}
	w.probes = func(x *runner) {
		largest := c.queries[0]
		for _, cq := range c.queries {
			c.engineProbes(x, cq)
			if cq.target.set.Size() > largest.target.set.Size() {
				largest = cq
			}
		}
		memProbes(x, largest.target, q)
	}
	w.phases = append([]phase{c.phase(coldPerRound)}, q.phases(w, n)...)
	return nil
}

// engineProbes times the executor alone on one query: symbolic against
// concrete execution, the streaming pull loop, streaming capture into a
// budgeted shard builder, and the bytes Collect allocates.
func (c *capture) engineProbes(x *runner, q *query) {
	const n = 3
	open := func(cat engine.Catalog) engine.Iterator {
		it, err := sql.Open(q.text, cat)
		if err != nil {
			x.fail("probe sql.Open", err)
		}
		return it
	}
	collect := func(name string, cat engine.Catalog) {
		for i := 0; i < n; i++ {
			it := open(cat)
			if it == nil {
				return
			}
			sw := startWatch()
			_, err := engine.Collect("result", it)
			x.part(name+"/"+q.name, sw.stop())
			if err != nil {
				x.fail("probe "+name, err)
			}
		}
	}
	collect("engine.collect", q.inst)
	collect("engine.concrete", q.concrete)
	for i := 0; i < n; i++ {
		it := open(q.inst)
		if it == nil {
			return
		}
		sw := startWatch()
		err := engine.Stream(it, func(relation.Tuple) error { return nil })
		x.part("engine.stream/"+q.name, sw.stop())
		if err != nil {
			x.fail("probe engine.stream", err)
		}
	}
	for i := 0; i < n; i++ {
		b := polynomial.NewShardBuilder(c.names, polynomial.ShardOptions{
			MaxResidentMonomials: max(q.target.set.Size()/2, 2), SpillDir: tmpDir,
		})
		sw := startWatch()
		err := provenance.CaptureStream(q.text, q.inst, q.valueCol, b, 1)
		var ss *polynomial.ShardedSet
		if err == nil {
			ss, err = b.Finish()
		}
		x.part("provenance.capture_stream/"+q.name, sw.stop())
		b.Discard()
		if err != nil {
			x.fail("probe provenance.capture_stream", err)
			continue
		}
		ss.Close()
	}
	if it := open(q.inst); it != nil {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := engine.Collect("result", it)
		runtime.ReadMemStats(&after)
		x.counts["engine.alloc_bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
		if err != nil {
			x.fail("probe engine.alloc", err)
		}
	}
}

// buildCaptureTelephony sets up capture_telephony: the paper's running
// example, a three-way hash join under a symbolic SUM.
func buildCaptureTelephony(name string, seed int64, sc scale, tr *tracer) (*workload, error) {
	w := newWorkload(name)
	traced := tr != nil
	customers := 10_000
	if sc == smoke {
		customers = 400
	}
	names := polynomial.NewNames()
	sw := startWatch()
	cat := telephony.Generate(telephony.Config{Customers: customers})
	w.lap("generate", sw)
	sw = startWatch()
	inst, err := telephony.InstrumentPrices(cat, names)
	if err != nil {
		return nil, err
	}
	w.lap("instrument", sw)
	c := &capture{names: names, queries: []*query{{
		name: "revenue", text: telephony.RevenueQuery, valueCol: "revenue",
		inst: inst, concrete: cat, tree: telephony.PlansTree(names),
	}}}
	r := rand.New(rand.NewSource(seed))
	c.startup = func(x *runner) { x.record("commutation", sample{}, checkCommutation(r)) }
	n := mix{sliderPasses: 10, sliderFullPasses: 10, batch: 30, batchFull: 30}
	if err := c.finish(w, r, sc, traced, 4, n); err != nil {
		c.close()
		return nil, err
	}
	return w, nil
}

// checkCommutation verifies, on a 400-customer slice, that evaluating the
// captured provenance under a seeded scenario equals re-running the query
// on the database the scenario describes.
func checkCommutation(r *rand.Rand) error {
	names := polynomial.NewNames()
	inst, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: 400}), names)
	if err != nil {
		return err
	}
	a := valuation.New(names)
	for _, plan := range telephony.PlanNames {
		a.MustSet(telephony.PlanVar[plan], factor(r))
	}
	rep, err := provenance.CheckCommutation(telephony.RevenueQuery, inst, names, "revenue", a)
	if err == nil && !rep.Ok(answerTolerance) {
		err = fmt.Errorf("valuation does not commute with query evaluation: %+v", rep)
	}
	return err
}

// buildCaptureTPCH sets up capture_tpch: seven queries over TPC-H data,
// six instrumented by ship month and Q5 by supplier nation.
func buildCaptureTPCH(name string, seed int64, sc scale, tr *tracer) (*workload, error) {
	w := newWorkload(name)
	traced := tr != nil
	sf := 0.01
	if sc == smoke {
		sf = 0.0005
	}
	names := polynomial.NewNames()
	sw := startWatch()
	// The data is the generator's default instance for every seed: query
	// selectivities, and with them the work of one op, must not move with
	// the seed. The seed draws the scenarios.
	cat := tpch.Generate(tpch.Config{SF: sf})
	w.lap("generate", sw)
	sw = startWatch()
	byMonth, err := tpch.InstrumentByShipMonth(cat, names)
	if err != nil {
		return nil, err
	}
	byNation, err := tpch.InstrumentBySupplierNation(cat, names)
	if err != nil {
		return nil, err
	}
	w.lap("instrument", sw)
	dates, nations := tpch.DateTree(names), tpch.NationRegionTree(names)
	c := &capture{names: names}
	for _, tq := range tpch.Queries {
		q := &query{name: tq.Name, text: tq.Prov, valueCol: tq.ValueCol, inst: byMonth, concrete: cat, tree: dates}
		if tq.Name == "Q5" {
			q.inst, q.tree = byNation, nations
		}
		c.queries = append(c.queries, q)
	}
	r := rand.New(rand.NewSource(seed))
	n := mix{sliderPasses: 4, sliderFullPasses: 8, batch: 8, batchFull: 8}
	if err := c.finish(w, r, sc, traced, 2, n); err != nil {
		c.close()
		return nil, err
	}
	return w, nil
}
