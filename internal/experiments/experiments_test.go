package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

func quick() Config { return Config{Quick: true}.WithDefaults() }

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.TelephonyCustomers != 100_000 || c.TPCHSF != 0.01 {
		t.Fatalf("defaults: %+v", c)
	}
	q := Config{Quick: true, TelephonyCustomers: 1_000_000, TPCHSF: 0.05}.WithDefaults()
	if q.TelephonyCustomers > 20_000 || q.TPCHSF > 0.002 {
		t.Fatalf("quick trim: %+v", q)
	}
	p := PaperScale()
	if p.TelephonyCustomers != 1_000_000 {
		t.Fatal("paper scale")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow(1, "x")
	tab.AddRow(2.5, time.Millisecond)
	tab.Note("hello %d", 7)
	tab.Elapsed = time.Second
	text := tab.Render()
	for _, want := range []string{"T — demo", "a", "bb", "1", "2.5", "1ms", "note: hello 7"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Render missing %q:\n%s", want, text)
		}
	}
}

func TestE1(t *testing.T) {
	tab, err := E1RunningExample(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] != "yes" {
			t.Fatalf("E1 mismatch: %v", row)
		}
	}
}

func TestE2(t *testing.T) {
	tab, err := E2ExampleCuts(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// S1 row: 4 monomials, 4 vars — matching the paper.
	if tab.Rows[0][2] != "4" || tab.Rows[0][3] != "4" {
		t.Fatalf("S1 row = %v", tab.Rows[0])
	}
	// S5 row: 2 monomials, 3 vars.
	if tab.Rows[4][2] != "2" || tab.Rows[4][3] != "3" {
		t.Fatalf("S5 row = %v", tab.Rows[4])
	}
}

func TestE3QuickShape(t *testing.T) {
	tab, err := E3Section4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE3PaperNumbersAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	tab, err := E3Section4(PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: original size 139260. Row 1: bound 94600 -> 88620, 7 vars.
	// Row 2: bound 38600 -> 37980, 3 vars.
	if tab.Rows[0][1] != "139260" {
		t.Fatalf("original size = %s, want 139260", tab.Rows[0][1])
	}
	if tab.Rows[1][1] != "88620" || tab.Rows[1][2] != "7" {
		t.Fatalf("bound 94600 row = %v", tab.Rows[1])
	}
	if tab.Rows[2][1] != "37980" || tab.Rows[2][2] != "3" {
		t.Fatalf("bound 38600 row = %v", tab.Rows[2])
	}
}

func TestE4AndE5(t *testing.T) {
	tab, err := E4BoundSweep(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("E4 rows = %d", len(tab.Rows))
	}
	tab5, err := E5SpeedupSweep(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab5.Rows) == 0 {
		t.Fatal("E5 empty")
	}
}

func TestE6ExactnessPattern(t *testing.T) {
	tab, err := E6ScenarioAccuracy(quick())
	if err != nil {
		t.Fatal(err)
	}
	// March scenario touches only month variables: exact under every
	// plans-tree cut. Business scenario: exact under S1 and S4 (business
	// leaves grouped consistently), inexact under S5.
	exact := map[string]string{}
	for _, row := range tab.Rows {
		exact[row[0]+"/"+row[1]] = row[4]
	}
	for k, want := range map[string]string{
		"March -20% (m3=0.8)/S1":         "yes",
		"March -20% (m3=0.8)/S5":         "yes",
		"Business +10% (b1,b2,e=1.1)/S1": "yes",
		"Business +10% (b1,b2,e=1.1)/S4": "yes",
		"Business +10% (b1,b2,e=1.1)/S5": "no",
	} {
		if exact[k] != want {
			t.Fatalf("%s: exact=%s, want %s\n%s", k, exact[k], want, tab.Render())
		}
	}
}

func TestE7(t *testing.T) {
	tab, err := E7AlgorithmScaling(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("E7a rows = %d", len(tab.Rows))
	}
	abl, err := E7Ablation(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range abl.Rows {
		if row[5] == "NO" {
			t.Fatalf("DP not optimal on %v", row)
		}
	}
}

func TestE8(t *testing.T) {
	tab, err := E8TPCH(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("E8 rows = %d", len(tab.Rows))
	}
}

func TestE9(t *testing.T) {
	tab, err := E9Commutation(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[5] != "yes" {
			t.Fatalf("commutation violated: %v", row)
		}
	}
}

func TestE11ForestBeatsSingleTrees(t *testing.T) {
	tab, err := E11Forest(quick())
	if err != nil {
		t.Fatal(err)
	}
	// At the tightest fraction, the single-tree strategies must be
	// infeasible or worse while the forest still succeeds (at 10% of the
	// original size: plans alone bottoms out at 1×12 months per zip = 9%,
	// feasible at exactly k=1; months alone at 11×1 per zip).
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	var forestOK bool
	for _, row := range tab.Rows {
		if row[1] == "plans+months" && row[2] != "infeasible" {
			forestOK = true
		}
	}
	if !forestOK {
		t.Fatalf("forest strategy never feasible:\n%s", tab.Render())
	}
}

func TestAllRegistry(t *testing.T) {
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
		if r.Run == nil || r.Name == "" {
			t.Fatalf("incomplete runner %+v", r)
		}
	}
	if got, want := strings.Join(ids, " "), "E1 E2 E3 E4 E5 E6 E7a E7b E8 E9 E11"; got != want {
		t.Fatalf("experiment index = %s, want %s", got, want)
	}
}

// TestInducedWeighted: E6's comparison column weights a group's leaves by
// their coefficient mass, and falls back to Induced's plain average for a
// group of zero mass.
func TestInducedWeighted(t *testing.T) {
	names := polynomial.NewNames()
	tree, err := abstraction.FromPaths("Plans", names,
		[]string{"Standard", "p1"}, []string{"Standard", "p2"},
		[]string{"Special", "v"},
		[]string{"Business", "SB", "b1"}, []string{"Business", "SB", "b2"}, []string{"Business", "e"},
	)
	if err != nil {
		t.Fatal(err)
	}
	set := polynomial.NewSet(names)
	set.Add("10002", polynomial.MustParse(
		"77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3 - 42*v*m1", names))
	cut, err := tree.CutOf("Business", "Special", "Standard")
	if err != nil {
		t.Fatal(err)
	}
	base := valuation.New(names).MustSet("b1", 2).MustSet("b2", 1).MustSet("e", 1).MustSet("p1", 3)
	w := inducedWeighted(base, coefficientMass(set), cut)
	get := func(name string) float64 {
		v, _ := names.Lookup(name)
		return w.Get(v)
	}
	// b1 mass = 77.9+80.5 = 158.4; b2 = 170.35; e = 108.7.
	wantBiz := (158.4*2 + 170.35*1 + 108.7*1) / (158.4 + 170.35 + 108.7)
	if got := get("Business"); math.Abs(got-wantBiz) > 1e-9 {
		t.Fatalf("weighted Business = %v, want %v", got, wantBiz)
	}
	// A negative coefficient weighs by its absolute value.
	if got := get("Special"); got != 1 {
		t.Fatalf("weighted Special = %v, want 1", got)
	}
	// Standard's leaves have zero mass: the plain average of 3 and 1.
	if got := get("Standard"); got != 2 {
		t.Fatalf("weighted Standard = %v, want 2", got)
	}
}
