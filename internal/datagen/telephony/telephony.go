// Package telephony generates the paper's running-example database: a
// telephony company with customers (plan, zip), per-month call durations,
// and per-month plan prices (Figure 1), plus the Figure-2 abstraction tree
// and the demo's hypothetical scenarios.
//
// Two construction paths are provided and tested to agree: the engine path
// (instrument Plans.Price, run the revenue query through the SQL engine)
// and a direct path that assembles the provenance polynomials without
// materializing the join — needed for the paper's 1M-customer measurement
// (Section 4), where the instrumented join would not fit in memory but the
// provenance (139,260 monomials) easily does.
package telephony

import (
	"fmt"
	"strconv"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// PlanNames are the paper's 11 calling plans: standard (A, B), families
// (F1, F2), youth (Y1..Y3), veterans (V), small business (SB1, SB2) and
// enterprise (E).
var PlanNames = []string{"A", "B", "F1", "F2", "Y1", "Y2", "Y3", "V", "SB1", "SB2", "E"}

// PlanVar maps a plan to its provenance variable, following Example 2.
var PlanVar = map[string]string{
	"A": "p1", "B": "p2", "F1": "f1", "F2": "f2",
	"Y1": "y1", "Y2": "y2", "Y3": "y3", "V": "v",
	"SB1": "b1", "SB2": "b2", "E": "e",
}

// basePrice is each plan's month-1 price per minute (Figure 1 for the plans
// it lists; paper-plausible values for the rest).
var basePrice = map[string]float64{
	"A": 0.4, "B": 0.45, "F1": 0.35, "F2": 0.3,
	"Y1": 0.3, "Y2": 0.28, "Y3": 0.26, "V": 0.25,
	"SB1": 0.1, "SB2": 0.1, "E": 0.05,
}

// MonthVar returns the month variable name (m1..m12).
func MonthVar(m int) string { return fmt.Sprintf("m%d", m) }

// RevenueQuery is the running example: revenue per zip code.
const RevenueQuery = `
SELECT Cust.Zip, SUM(Calls.Dur * Plans.Price) AS revenue
FROM Calls, Cust, Plans
WHERE Cust.Plan = Plans.Plan
  AND Cust.ID = Calls.CID
  AND Calls.Mo = Plans.Mo
GROUP BY Cust.Zip
ORDER BY Cust.Zip`

// Config controls the scalable generator.
type Config struct {
	// Customers is the number of customers (default 10,000).
	Customers int
	// Zips is the number of zip codes; 0 derives ceil(Customers/948),
	// which reproduces the paper's 1,055 zips at one million customers.
	Zips int
	// Months is the number of months with call data (default 12).
	Months int
}

func (c Config) withDefaults() Config {
	if c.Customers <= 0 {
		c.Customers = 10_000
	}
	if c.Zips <= 0 {
		c.Zips = (c.Customers + 947) / 948
	}
	if c.Months <= 0 {
		c.Months = 12
	}
	return c
}

// zipName formats the i-th zip code (10001, 10002, ...).
func zipName(i int) string { return strconv.Itoa(10001 + i) }

// planOf deterministically assigns plans round-robin within each zip, so
// every zip with at least 11·Zips customers covers every plan.
func planOf(custIdx, zips int) int { return (custIdx / zips) % len(PlanNames) }

// duration is a deterministic pseudo-random call duration in minutes for a
// (customer, month) pair — a hash, not an RNG stream, so the direct
// provenance path can evaluate it out of order.
func duration(custIdx, month int) int {
	h := uint64(custIdx)*0x9E3779B97F4A7C15 + uint64(month)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return 60 + int(h%1141)
}

// price is the deterministic per-month price of a plan: the base price
// scaled by a factor cycling through {0.8, 0.9, 1.0, 1.1, 1.2}.
func price(planIdx, month int) float64 {
	factor := 0.8 + 0.1*float64((month*7+planIdx*3)%5)
	return basePrice[PlanNames[planIdx]] * factor
}

// Generate materializes the database at the configured scale. Memory grows
// with Customers × Months; use DirectProvenance for paper-scale provenance.
// Each relation's cells are one slab (see table), and each zip code is
// formatted once.
func Generate(cfg Config) engine.Catalog {
	cfg = cfg.withDefaults()
	zips := make([]relation.Value, cfg.Zips)
	for z := range zips {
		zips[z] = relation.Str(zipName(z))
	}
	cust := make([]relation.Value, 0, 3*cfg.Customers)
	calls := make([]relation.Value, 0, 3*cfg.Customers*cfg.Months)
	for i := 0; i < cfg.Customers; i++ {
		cust = append(cust, relation.Int(int64(i+1)), relation.Str(PlanNames[planOf(i, cfg.Zips)]), zips[i%cfg.Zips])
		for m := 1; m <= cfg.Months; m++ {
			calls = append(calls, relation.Int(int64(i+1)), relation.Int(int64(m)), relation.Float(float64(duration(i, m))))
		}
	}
	plans := make([]relation.Value, 0, 3*len(PlanNames)*cfg.Months)
	for pi, plan := range PlanNames {
		for m := 1; m <= cfg.Months; m++ {
			plans = append(plans, relation.Str(plan), relation.Int(int64(m)), relation.Float(price(pi, m)))
		}
	}
	return engine.Catalog{
		"Cust":  table("Cust", cust, "ID", "Plan", "Zip"),
		"Calls": table("Calls", calls, "CID", "Mo", "Dur"),
		"Plans": table("Plans", plans, "Plan", "Mo", "Price"),
	}
}

// table builds a three-column relation over cells, row after row: every
// row is a full-slice window (cap == len) of that one slab, annotated with
// the shared polynomial.One(), and each column has the kind of the first
// row's cell.
func table(name string, cells []relation.Value, c0, c1, c2 string) *relation.Relation {
	rel := relation.NewRelation(name, relation.NewSchema(
		relation.Column{Name: c0, Kind: cells[0].Kind()},
		relation.Column{Name: c1, Kind: cells[1].Kind()},
		relation.Column{Name: c2, Kind: cells[2].Kind()}))
	rel.Rows = make([]relation.Tuple, len(cells)/3)
	for i := range rel.Rows {
		rel.Rows[i] = relation.NewTuple(cells[3*i : 3*i+3 : 3*i+3]...)
	}
	return rel
}

// InstrumentPrices parameterizes every price cell with its plan and month
// variables: price(plan, m) becomes price·<planVar>·m<m> (Example 2).
func InstrumentPrices(cat engine.Catalog, names *polynomial.Names) (engine.Catalog, error) {
	plans, ok := cat["Plans"]
	if !ok {
		return nil, fmt.Errorf("telephony: catalog has no Plans relation")
	}
	clone := plans.Clone()
	planIdx, err := clone.Schema.Index("Plan")
	if err != nil {
		return nil, err
	}
	moIdx, err := clone.Schema.Index("Mo")
	if err != nil {
		return nil, err
	}
	priceIdx, err := clone.Schema.Index("Price")
	if err != nil {
		return nil, err
	}
	for ri := range clone.Rows {
		row := &clone.Rows[ri]
		plan := row.Values[planIdx].S()
		pv, ok := PlanVar[plan]
		if !ok {
			return nil, fmt.Errorf("telephony: unknown plan %q", plan)
		}
		mo := int(row.Values[moIdx].I())
		base, ok := row.Values[priceIdx].AsFloat()
		if !ok {
			return nil, fmt.Errorf("telephony: price is not numeric")
		}
		p := polynomial.New(polynomial.Mono(base,
			polynomial.T(names.Var(pv)), polynomial.T(names.Var(MonthVar(mo)))))
		row.Values[priceIdx] = relation.Poly(p)
	}
	out := make(engine.Catalog, len(cat))
	for k, v := range cat {
		out[k] = v
	}
	out["Plans"] = clone
	return out, nil
}

// DirectProvenance assembles the revenue query's provenance polynomials
// without materializing the join: for each zip, the polynomial
// Σ_{plan,month} (Σ_{cust} dur) · price · planVar · monthVar. It matches the
// engine path up to floating-point summation order.
func DirectProvenance(cfg Config, names *polynomial.Names) *polynomial.Set {
	cfg = cfg.withDefaults()
	nPlans, months := len(PlanNames), cfg.Months
	// prices[p*months+m-1] = price(p, m), computed once rather than once
	// per customer-month.
	prices := make([]float64, nPlans*months)
	for k := range prices {
		prices[k] = price(k/months, k%months+1)
	}
	// coef[(zip*nPlans+plan)*months+month-1]
	coef := make([]float64, cfg.Zips*nPlans*months)
	for i := 0; i < cfg.Customers; i++ {
		z, p := i%cfg.Zips, planOf(i, cfg.Zips)
		row, pr := coef[(z*nPlans+p)*months:][:months], prices[p*months:][:months]
		for m := 1; m <= months; m++ {
			row[m-1] += float64(duration(i, m)) * pr[m-1]
		}
	}

	planVars := make([]polynomial.Var, nPlans)
	for p, plan := range PlanNames {
		planVars[p] = names.Var(PlanVar[plan])
	}
	monthVars := make([]polynomial.Var, cfg.Months)
	for m := 0; m < cfg.Months; m++ {
		monthVars[m] = names.Var(MonthVar(m + 1))
	}

	set := polynomial.NewSet(names)
	for z := 0; z < cfg.Zips; z++ {
		var b polynomial.Builder
		b.Grow(nPlans * cfg.Months)
		for p := 0; p < nPlans; p++ {
			for m := 0; m < cfg.Months; m++ {
				if c := coef[(z*nPlans+p)*months+m]; c != 0 {
					b.Add(c, polynomial.T(planVars[p]), polynomial.T(monthVars[m]))
				}
			}
		}
		//cobra:sinkerr in-memory Set.Add is documented to never fail
		set.Add(zipName(z), b.Polynomial())
	}
	return set
}

// PlansTree builds the Figure-2 abstraction tree over the plan variables.
func PlansTree(names *polynomial.Names) *abstraction.Tree {
	t, err := abstraction.FromPaths("Plans", names,
		[]string{"Standard", "p1"},
		[]string{"Standard", "p2"},
		[]string{"Special", "Y", "y1"},
		[]string{"Special", "Y", "y2"},
		[]string{"Special", "Y", "y3"},
		[]string{"Special", "F", "f1"},
		[]string{"Special", "F", "f2"},
		[]string{"Special", "v"},
		[]string{"Business", "SB", "b1"},
		[]string{"Business", "SB", "b2"},
		[]string{"Business", "e"},
	)
	if err != nil {
		panic(err) // static structure; cannot fail
	}
	return t
}

// MonthsTree builds the quarter tree from Section 4 ("quarter
// meta-variables q1...q4 ... the variables m1,...,m3 are the children of
// q1") over months 1..months.
func MonthsTree(names *polynomial.Names, months int) *abstraction.Tree {
	if months <= 0 {
		months = 12
	}
	t := abstraction.NewTree("Year", names)
	for m := 1; m <= months; m++ {
		q := (m + 2) / 3
		if _, err := t.AddPath(fmt.Sprintf("q%d", q), MonthVar(m)); err != nil {
			panic(err)
		}
	}
	return t
}

// Figure1DB returns the exact database of Figure 1 (7 customers, months 1
// and 3) whose revenue-query provenance is Example 2's P1 and P2.
func Figure1DB() engine.Catalog {
	cust := relation.NewRelation("Cust", relation.NewSchema(
		relation.Column{Name: "ID", Kind: relation.KindInt},
		relation.Column{Name: "Plan", Kind: relation.KindString},
		relation.Column{Name: "Zip", Kind: relation.KindString},
	))
	for _, r := range []struct {
		id   int64
		plan string
		zip  string
	}{
		{1, "A", "10001"}, {2, "F1", "10001"}, {3, "SB1", "10002"},
		{4, "Y1", "10001"}, {5, "V", "10001"}, {6, "E", "10002"}, {7, "SB2", "10002"},
	} {
		cust.Append(relation.Int(r.id), relation.Str(r.plan), relation.Str(r.zip))
	}

	calls := relation.NewRelation("Calls", relation.NewSchema(
		relation.Column{Name: "CID", Kind: relation.KindInt},
		relation.Column{Name: "Mo", Kind: relation.KindInt},
		relation.Column{Name: "Dur", Kind: relation.KindFloat},
	))
	durs := []struct {
		cid    int64
		m1, m3 float64
	}{
		{1, 522, 480}, {2, 364, 327}, {3, 779, 805}, {4, 253, 290},
		{5, 168, 121}, {6, 1044, 1130}, {7, 697, 671},
	}
	for _, d := range durs {
		calls.Append(relation.Int(d.cid), relation.Int(1), relation.Float(d.m1))
		calls.Append(relation.Int(d.cid), relation.Int(3), relation.Float(d.m3))
	}

	plans := relation.NewRelation("Plans", relation.NewSchema(
		relation.Column{Name: "Plan", Kind: relation.KindString},
		relation.Column{Name: "Mo", Kind: relation.KindInt},
		relation.Column{Name: "Price", Kind: relation.KindFloat},
	))
	prices := []struct {
		plan   string
		m1, m3 float64
	}{
		{"A", 0.4, 0.5}, {"F1", 0.35, 0.35}, {"Y1", 0.3, 0.25}, {"V", 0.25, 0.2},
		{"SB1", 0.1, 0.1}, {"SB2", 0.1, 0.15}, {"E", 0.05, 0.05},
	}
	for _, p := range prices {
		plans.Append(relation.Str(p.plan), relation.Int(1), relation.Float(p.m1))
		plans.Append(relation.Str(p.plan), relation.Int(3), relation.Float(p.m3))
	}

	return engine.Catalog{"Cust": cust, "Calls": calls, "Plans": plans}
}

// ScenarioMarchMinus20 is the paper's first hypothetical: "what if the ppm
// of all plans are decreased by 20% on March?" — m3 := 0.8.
func ScenarioMarchMinus20(names *polynomial.Names) *valuation.Assignment {
	a := valuation.New(names)
	a.SetVar(names.Var("m3"), 0.8)
	return a
}

// ScenarioBusinessPlus10 is the paper's second hypothetical: "what if the
// ppm in the business calling plans are increased by 10%?" — b1, b2, e := 1.1.
func ScenarioBusinessPlus10(names *polynomial.Names) *valuation.Assignment {
	a := valuation.New(names)
	for _, v := range []string{"b1", "b2", "e"} {
		a.SetVar(names.Var(v), 1.1)
	}
	return a
}
