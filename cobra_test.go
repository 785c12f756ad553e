package cobra_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/polyio"
)

// TestFacadeEndToEnd exercises the documented public API surface: build a
// set, a tree, compress, assign, and verify soundness — the doc.go quick
// start, end to end.
func TestFacadeEndToEnd(t *testing.T) {
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	set.Add("10001", cobra.MustParsePolynomial(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3", names))

	tree, err := cobra.TreeFromPaths("Plans", names,
		[]string{"Standard", "p1"},
		[]string{"Special", "f1"},
	)
	if err != nil {
		t.Fatal(err)
	}

	ds := openDataset(t, set, cobra.Forest{tree}, cobra.Options{})
	res, err := ds.Compress(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 2 || res.NumMeta != 1 {
		t.Fatalf("compress: size=%d vars=%d", res.Size, res.NumMeta)
	}
	comp := res.Apply(set)
	if comp.Size() != 2 {
		t.Fatalf("applied size = %d", comp.Size())
	}

	// A tree-consistent scenario evaluates exactly.
	a := cobra.NewAssignment(names)
	if err := a.Set("m3", 0.8); err != nil {
		t.Fatal(err)
	}
	full := cobra.EvalSet(set, a)
	approx := cobra.EvalSet(comp, cobra.Induced(a, res.Cuts...))
	acc, err := cobra.CompareResults(full, approx)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Exact(1e-9) {
		t.Fatalf("not exact: %+v", acc)
	}
}

func TestFacadeCompressBaselines(t *testing.T) {
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	set.Add("g", cobra.MustParsePolynomial("3*a + 4*b + 5*c", names))
	tree, _ := cobra.TreeFromPaths("R", names, []string{"a"}, []string{"b"}, []string{"c"})

	g, err := cobra.CompressGreedy(set, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cobra.CompressExhaustive(set, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size != 1 || e.Size != 1 {
		t.Fatalf("baselines: greedy=%d exhaustive=%d", g.Size, e.Size)
	}

	_, err = openDataset(t, set, cobra.Forest{tree}, cobra.Options{}).Compress(context.Background(), 0)
	var ie *cobra.InfeasibleError
	if !errors.As(err, &ie) || !errors.Is(err, cobra.ErrInfeasible) {
		t.Fatalf("expected InfeasibleError, got %v", err)
	}
}

func TestFacadeSerializationRoundTrip(t *testing.T) {
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	set.Add("k", cobra.MustParsePolynomial("2*x*y + 7", names))

	for _, format := range []cobra.Format{cobra.FormatText, cobra.FormatJSON, cobra.FormatBinary} {
		var buf bytes.Buffer
		if err := cobra.WriteSet(&buf, set, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		back, got, err := cobra.ReadSet(&buf, nil)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if got != format {
			t.Fatalf("wrote %s, detected %s", format, got)
		}
		if back.String() != set.String() {
			t.Fatalf("%s: round trip changed the set:\n%s\nvs\n%s", format, back, set)
		}
	}
	for _, format := range []cobra.Format{"yaml", "stream"} {
		if err := cobra.WriteSet(io.Discard, set, format); err == nil || format.Validate() == nil {
			t.Fatalf("unknown format %q should fail", format)
		}
	}
}

// TestFacadeStreamedPipeline drives the out-of-core surface end to end:
// open the set under a budget that forces spills, compress/apply/evaluate
// streamed, round-trip through the binary format, and check everything
// against the in-memory path.
func TestFacadeStreamedPipeline(t *testing.T) {
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	for z := 0; z < 120; z++ {
		poly := ""
		for p := 0; p < 4; p++ {
			if p > 0 {
				poly += " + "
			}
			poly += fmt.Sprintf("%d*p%d*m%d", 10+z+p, p+1, z%12+1)
		}
		set.Add(fmt.Sprintf("zip%d", z), cobra.MustParsePolynomial(poly, names))
	}
	tree, err := cobra.TreeFromPaths("Plans", names,
		[]string{"Standard", "p1"}, []string{"Standard", "p2"},
		[]string{"Special", "p3"}, []string{"Special", "p4"})
	if err != nil {
		t.Fatal(err)
	}

	spill := t.TempDir()
	opts := cobra.Options{Workers: 4, MaxResidentMonomials: set.Size() / 6, SpillDir: spill}
	ctx := context.Background()
	ds, err := cobra.OpenDataset("facade", set, cobra.Forest{tree}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if !ds.OutOfCore() {
		t.Fatal("a budget must shard the set")
	}
	if entries, _ := os.ReadDir(spill); len(entries) != 1 {
		t.Fatalf("a budget of size/6 should force spills: spill dir holds %d entries", len(entries))
	}

	bound := set.Size() / 2
	want, err := core.CompressSource(set, cobra.Forest{tree}, bound, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Compress(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "streamed compress", got, want)

	compressed, err := ds.Apply(ctx, got.Cuts...)
	if err != nil {
		t.Fatal(err)
	}
	defer compressed.Close()
	wantApplied := cobra.Apply(set, cobra.Options{}, want.Cuts...)
	if compressed.Size() != wantApplied.Size() || compressed.Len() != wantApplied.Len() {
		t.Fatalf("streamed apply: len/size %d/%d, want %d/%d",
			compressed.Len(), compressed.Size(), wantApplied.Len(), wantApplied.Size())
	}

	// Streamed valuation against the compiled in-memory program.
	assignments := make([]*cobra.Assignment, 10)
	for i := range assignments {
		a := cobra.NewAssignment(names)
		if err := a.Set(fmt.Sprintf("m%d", i%12+1), 0.8); err != nil {
			t.Fatal(err)
		}
		assignments[i] = a
	}
	wantRows := cobra.Compile(set).EvalBatchN(assignments, nil, 1)
	gotRows, err := ds.EvalBatch(ctx, assignments)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, gotRows, wantRows, "streamed EvalBatch")

	// The applied dataset evaluates like the in-memory applied set under
	// the induced assignments.
	induced := make([]*cobra.Assignment, len(assignments))
	for i, a := range assignments {
		induced[i] = cobra.Induced(a, got.Cuts...)
	}
	gotDerived, err := compressed.EvalBatch(ctx, induced)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, gotDerived, cobra.Compile(wantApplied).EvalBatchN(induced, nil, 1), "derived EvalBatch")

	// Binary round trip: the file opens as a dataset of its own, decoded
	// shard by shard under the same budget, and answers the same rows.
	var buf bytes.Buffer
	if err := cobra.WriteSet(&buf, set, cobra.FormatBinary); err != nil {
		t.Fatal(err)
	}
	ix, err := polyio.OpenIndexedSet(bytes.NewReader(buf.Bytes()), int64(buf.Len()), names)
	if err != nil {
		t.Fatal(err)
	}
	back := openDataset(t, ix, cobra.Forest{tree}, opts)
	if back.Len() != set.Len() || back.Size() != set.Size() || !back.OutOfCore() {
		t.Fatalf("binary round trip: len/size %d/%d (out of core %v) vs %d/%d", back.Len(), back.Size(), back.OutOfCore(), set.Len(), set.Size())
	}
	backRows, err := back.EvalBatch(ctx, assignments)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, backRows, wantRows, "round-tripped EvalBatch")
}

func TestFacadeSQLAndProvenance(t *testing.T) {
	// Minimal end-to-end through the SQL engine: one table, parameterized
	// prices, capture, commutation.
	names := cobra.NewNames()
	sales := cobra.NewRelation("sales",
		cobra.Column{Name: "cat"}, cobra.Column{Name: "amount"})
	sales.Append(cobra.Str("a"), cobra.Float(10))
	sales.Append(cobra.Str("a"), cobra.Float(20))
	sales.Append(cobra.Str("b"), cobra.Float(5))
	inst, err := cobra.ParameterizeColumn(sales, "amount", []cobra.VarSpec{{Prefix: "c_", Columns: []string{"cat"}}}, names)
	if err != nil {
		t.Fatal(err)
	}
	cat := cobra.Catalog{"sales": inst}
	set, err := cobra.Capture("SELECT cat, SUM(amount) AS total FROM sales GROUP BY cat ORDER BY cat", cat, names, "total", cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 || set.Size() != 2 {
		t.Fatalf("set: %v", set)
	}
	a := cobra.NewAssignment(names)
	if err := a.Set("c_a", 1.5); err != nil {
		t.Fatal(err)
	}
	rep, err := cobra.CheckCommutation("SELECT cat, SUM(amount) AS total FROM sales GROUP BY cat ORDER BY cat", cat, names, "total", a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok(1e-9) {
		t.Fatalf("commutation: %+v", rep)
	}
	// Direct evaluation: group a scaled by 1.5.
	vals := cobra.EvalSet(set, a)
	if math.Abs(vals[0]-45) > 1e-9 || math.Abs(vals[1]-5) > 1e-9 {
		t.Fatalf("vals = %v", vals)
	}
}

// TestFacadeParallelOptions exercises the Options{Workers} surface: the
// parallel entry points must return exactly what their sequential
// counterparts return.
func TestFacadeParallelOptions(t *testing.T) {
	if cobra.AutoWorkers() < 1 {
		t.Fatalf("AutoWorkers() = %d", cobra.AutoWorkers())
	}
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	set.Add("10001", cobra.MustParsePolynomial(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 3*f2*m1", names))
	tree, err := cobra.TreeFromPaths("Plans", names,
		[]string{"Standard", "p1"},
		[]string{"Special", "f1"},
		[]string{"Special", "f2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := cobra.Options{Workers: 4}
	ctx := context.Background()
	seqDS := openDataset(t, set, cobra.Forest{tree}, cobra.Options{})
	parDS := openDataset(t, set, cobra.Forest{tree}, opts)

	seq, err := seqDS.Compress(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parDS.Compress(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "Compress across workers", par, seq)

	sf, err := seqDS.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := parDS.Frontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf) != len(pf) {
		t.Fatalf("Frontier across workers: %d points vs %d", len(pf), len(sf))
	}

	compSeq := cobra.Apply(set, cobra.Options{}, seq.Cuts...)
	compPar := cobra.Apply(set, opts, par.Cuts...)
	if compSeq.Size() != compPar.Size() || compSeq.String() != compPar.String() {
		t.Fatalf("Apply diverged across workers:\n%s\nvs\n%s", compSeq, compPar)
	}

	a := cobra.NewAssignment(names)
	if err := a.Set("m3", 0.8); err != nil {
		t.Fatal(err)
	}
	rows, err := parDS.EvalBatch(ctx, []*cobra.Assignment{a, cobra.NewAssignment(names)})
	if err != nil {
		t.Fatal(err)
	}
	single := cobra.Compile(set).EvalAssignment(a, nil)
	if len(rows) != 2 || rows[0][0] != single[0] {
		t.Fatalf("EvalBatch diverged: %v vs %v", rows, single)
	}
}

// TestFacadeParallelCapture exercises the capture surface across worker
// counts: Capture, CaptureLineage and AnnotateTuples must return exactly
// what they return sequentially (zero Options). ParameterizeColumn takes
// no Options, so one instrumented relation serves every worker count.
func TestFacadeParallelCapture(t *testing.T) {
	names := cobra.NewNames()
	sales := cobra.NewRelation("sales",
		cobra.Column{Name: "cat"}, cobra.Column{Name: "amount"})
	for i := 0; i < 200; i++ {
		sales.Append(cobra.Str([]string{"a", "b", "c"}[i%3]), cobra.Float(float64(i)))
	}
	const query = "SELECT cat, SUM(amount) AS total FROM sales GROUP BY cat ORDER BY cat"
	inst, err := cobra.ParameterizeColumn(sales, "amount", []cobra.VarSpec{{Prefix: "c_", Columns: []string{"cat"}}}, names)
	if err != nil {
		t.Fatal(err)
	}
	cat := cobra.Catalog{"sales": inst}
	out, err := cobra.RunSQL(query, cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d", out.Len())
	}
	seqSet, err := cobra.Capture(query, cat, names, "total", cobra.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 2, 8} {
		opts := cobra.Options{Workers: w}
		set, err := cobra.Capture(query, cat, names, "total", opts)
		if err != nil {
			t.Fatal(err)
		}
		if set.Len() != seqSet.Len() || set.String() != seqSet.String() {
			t.Fatalf("workers=%d: Capture diverged:\n%s\nvs\n%s", w, set, seqSet)
		}

		ann, err := cobra.AnnotateTuples(sales, cobra.VarSpec{Prefix: "t", Columns: []string{"cat"}}, names, opts)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := cobra.CaptureLineage("SELECT cat FROM sales", cobra.Catalog{"sales": ann}, names, opts)
		if err != nil {
			t.Fatal(err)
		}
		if lin.Len() != 200 {
			t.Fatalf("workers=%d: lineage rows = %d", w, lin.Len())
		}
	}
}

// TestFacadeFrontierForestSweep exercises the forest-level surface on a
// partitioned two-dimension fixture: one Sweep must answer every bound
// with the exact optimum, Compress must give the same answer at each
// bound, and the forest curve must be the exact one.
func TestFacadeFrontierForestSweep(t *testing.T) {
	names := cobra.NewNames()
	// Dimension 1 (consumer plans) appears only in group g1's monomials,
	// dimension 2 (agents) only in g2's — partitioned, so the forest
	// frontier is exact.
	g1 := cobra.MustParsePolynomial("10*p1*c0 + 20*p1*c1 + 30*p2*c0 + 40*p2*c1", names)
	g2 := cobra.MustParsePolynomial("1*a1*c0 + 2*a1*c1 + 3*a2*c0 + 4*a2*c1", names)
	set := cobra.NewSet(names)
	set.Add("g1", g1)
	set.Add("g2", g2)
	plans, err := cobra.TreeFromPaths("Plans", names, []string{"p1"}, []string{"p2"})
	if err != nil {
		t.Fatal(err)
	}
	agents, err := cobra.TreeFromPaths("Agents", names, []string{"a1"}, []string{"a2"})
	if err != nil {
		t.Fatal(err)
	}
	forest := cobra.Forest{plans, agents}
	ctx := context.Background()
	ds := openDataset(t, set, forest, cobra.Options{Workers: 2})

	curve, err := ds.ForestFrontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// k=2 (both roots): 2+2 monomials; k=4 (all leaves): 8. k=3: 6.
	if len(curve) != 3 {
		t.Fatalf("curve has %d points: %+v", len(curve), curve)
	}
	for i, want := range []struct{ k, size int }{{2, 4}, {3, 6}, {4, 8}} {
		if curve[i].NumMeta != want.k || curve[i].MinSize != want.size {
			t.Fatalf("point %d = (%d, %d), want (%d, %d)",
				i, curve[i].NumMeta, curve[i].MinSize, want.k, want.size)
		}
		if got := cobra.Apply(set, cobra.Options{}, curve[i].Cuts...).Size(); got != want.size {
			t.Fatalf("point %d: applied %d != %d", i, got, want.size)
		}
	}

	bounds := []int{8, 7, 4, 3, 1}
	answers, err := ds.Sweep(ctx, bounds)
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := []int{4, 3, 2, -1, -1} // -1 = infeasible
	for i, a := range answers {
		res, err := ds.Compress(ctx, bounds[i])
		if wantMeta[i] < 0 {
			var ie *cobra.InfeasibleError
			if a.Err == nil || !errors.As(a.Err, &ie) {
				t.Fatalf("bound %d: want InfeasibleError, got %+v", a.Bound, a)
			}
			if ie.MinAchievable != 4 {
				t.Fatalf("bound %d: MinAchievable = %d, want 4", a.Bound, ie.MinAchievable)
			}
			if err == nil || err.Error() != a.Err.Error() {
				t.Fatalf("bound %d: Compress err = %v, Sweep err = %v", a.Bound, err, a.Err)
			}
			continue
		}
		if a.Err != nil || a.Result.NumMeta != wantMeta[i] {
			t.Fatalf("bound %d: got %+v, want %d meta-variables", a.Bound, a, wantMeta[i])
		}
		if err != nil {
			t.Fatalf("bound %d: Compress: %v", a.Bound, err)
		}
		resultsEqual(t, fmt.Sprintf("bound %d: Compress against Sweep", a.Bound), res, a.Result)
	}

	// Coupling the dimensions must surface a CrossTreeError.
	coupled := cobra.NewSet(names)
	coupled.Add("g1", g1)
	coupled.Add("g2", g2)
	coupled.Add("bad", cobra.MustParsePolynomial("5*p1*a1", names))
	var ce *cobra.CrossTreeError
	if _, err := openDataset(t, coupled, forest, cobra.Options{}).Sweep(ctx, []int{4}); !errors.As(err, &ce) {
		t.Fatalf("want CrossTreeError, got %v", err)
	}
}
