package telephony

import (
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/sql"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Customers != 10_000 || c.Months != 12 {
		t.Fatalf("defaults: %+v", c)
	}
	// Paper scale: one million customers -> 1,055 zips.
	c = Config{Customers: 1_000_000}.withDefaults()
	if c.Zips != 1055 {
		t.Fatalf("zips at 1M = %d, want 1055", c.Zips)
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	cfg := Config{Customers: 200, Zips: 3, Months: 4}
	cat1 := Generate(cfg)
	cat2 := Generate(cfg)
	if cat1["Cust"].Len() != 200 || cat1["Calls"].Len() != 800 || cat1["Plans"].Len() != 44 {
		t.Fatalf("sizes: cust=%d calls=%d plans=%d", cat1["Cust"].Len(), cat1["Calls"].Len(), cat1["Plans"].Len())
	}
	for i := range cat1["Calls"].Rows {
		a, b := cat1["Calls"].Rows[i], cat2["Calls"].Rows[i]
		if a.Values[2].F() != b.Values[2].F() {
			t.Fatal("generator not deterministic")
		}
	}
	// Every zip covers every plan (needed for the Section-4 size formula).
	seen := map[string]map[string]bool{}
	for _, row := range cat1["Cust"].Rows {
		z, p := row.Values[2].S(), row.Values[1].S()
		if seen[z] == nil {
			seen[z] = map[string]bool{}
		}
		seen[z][p] = true
	}
	for z, plans := range seen {
		if len(plans) != len(PlanNames) {
			t.Fatalf("zip %s covers %d plans", z, len(plans))
		}
	}
}

func TestDurationsAndPricesValid(t *testing.T) {
	for i := 0; i < 100; i++ {
		for m := 1; m <= 12; m++ {
			if d := duration(i, m); d < 60 || d > 1200 {
				t.Fatalf("duration(%d,%d) = %d out of range", i, m, d)
			}
		}
	}
	for pi := range PlanNames {
		for m := 1; m <= 12; m++ {
			if p := price(pi, m); p <= 0 {
				t.Fatalf("price(%d,%d) = %v", pi, m, p)
			}
		}
	}
}

func TestDirectProvenanceMatchesEnginePath(t *testing.T) {
	// The integration guarantee behind E3: the direct construction equals
	// instrumenting the database and running the query through the engine.
	cfg := Config{Customers: 120, Zips: 3, Months: 4}
	names := polynomial.NewNames()
	direct := DirectProvenance(cfg, names)

	inst, err := InstrumentPrices(Generate(cfg), names)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sql.Run(RevenueQuery, inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != direct.Len() {
		t.Fatalf("groups: engine %d vs direct %d", out.Len(), direct.Len())
	}
	for _, row := range out.Rows {
		zip := row.Values[0].S()
		want, ok := direct.Poly(zip)
		if !ok {
			t.Fatalf("zip %s missing from direct set", zip)
		}
		if !polynomial.AlmostEqual(row.Values[1].P(), want, 1e-9) {
			t.Fatalf("zip %s:\nengine: %s\ndirect: %s", zip,
				row.Values[1].P().String(names), want.String(names))
		}
	}
}

func TestDirectProvenanceSizeFormula(t *testing.T) {
	// Size = zips × plans × months when every combination is populated.
	cfg := Config{Customers: 500, Zips: 4, Months: 6}
	names := polynomial.NewNames()
	set := DirectProvenance(cfg, names)
	if got, want := set.Size(), 4*len(PlanNames)*6; got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	if set.NumVars() != len(PlanNames)+6 {
		t.Fatalf("vars = %d", set.NumVars())
	}
}

func TestPlansTreeMatchesFigure2(t *testing.T) {
	names := polynomial.NewNames()
	tree := PlansTree(names)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves()) != 11 || tree.Len() != 18 {
		t.Fatalf("leaves=%d nodes=%d", len(tree.Leaves()), tree.Len())
	}
	for _, cut := range [][]string{
		{"Business", "Special", "Standard"},
		{"SB", "e", "f1", "f2", "Y", "v", "Standard"},
		{"b1", "b2", "e", "Special", "Standard"},
		{"SB", "e", "F", "Y", "v", "p1", "p2"},
		{"Plans"},
	} {
		if _, err := tree.CutOf(cut...); err != nil {
			t.Errorf("paper cut %v invalid: %v", cut, err)
		}
	}
}

func TestMonthsTreeQuarters(t *testing.T) {
	names := polynomial.NewNames()
	tree := MonthsTree(names, 12)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves()) != 12 {
		t.Fatalf("leaves = %d", len(tree.Leaves()))
	}
	c, err := tree.CutOf("q1", "q2", "q3", "q4")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVars() != 4 {
		t.Fatal("quarter cut")
	}
	// m1..m3 under q1.
	q1 := tree.ByName("q1")
	if got := len(tree.LeavesUnder(q1)); got != 3 {
		t.Fatalf("q1 has %d months", got)
	}
}

func TestScenarios(t *testing.T) {
	names := polynomial.NewNames()
	m := ScenarioMarchMinus20(names)
	if v, _ := names.Lookup("m3"); m.Get(v) != 0.8 {
		t.Fatal("March scenario")
	}
	b := ScenarioBusinessPlus10(names)
	for _, s := range []string{"b1", "b2", "e"} {
		if v, _ := names.Lookup(s); b.Get(v) != 1.1 {
			t.Fatalf("business scenario %s", s)
		}
	}
}

func TestFigure1DBShape(t *testing.T) {
	cat := Figure1DB()
	if cat["Cust"].Len() != 7 || cat["Calls"].Len() != 14 || cat["Plans"].Len() != 14 {
		t.Fatal("Figure 1 sizes")
	}
	names := polynomial.NewNames()
	if _, err := InstrumentPrices(cat, names); err != nil {
		t.Fatal(err)
	}
	// Instrumentation must not mutate the source catalog.
	for _, row := range cat["Plans"].Rows {
		if row.Values[2].Kind() != 2 { // KindFloat
			t.Fatal("InstrumentPrices mutated input")
		}
	}
}

// TestGenerateAllocations pins Generate's allocations: each relation is
// built in one slab of cells, so a 10 000-customer catalog (120 000 call
// rows) costs a few allocations per relation and per zip, not one per row.
func TestGenerateAllocations(t *testing.T) {
	cfg := Config{Customers: 10_000}
	allocs := testing.AllocsPerRun(3, func() { Generate(cfg) })
	if zips := cfg.withDefaults().Zips; allocs > float64(40+2*zips) {
		t.Fatalf("Generate(%+v) allocates %v times, want at most %d", cfg, allocs, 40+2*zips)
	}
}
