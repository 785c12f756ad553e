package provenance

import (
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/valuation"
)

func TestSanitize(t *testing.T) {
	// Value sanitization lives in AppendVarName: render each raw value
	// through a one-column spec and check the sanitized identifier.
	cases := map[string]string{
		"A":        "A",
		"BRAND#12": "BRAND_12",
		"1994-01":  "1994_01",
		"":         "_",
		"a b":      "a_b",
		"x.y:z":    "x.y:z",
	}
	rel := relation.NewRelation("t", relation.NewSchema(
		relation.Column{Name: "C", Kind: relation.KindString},
	))
	spec := VarSpec{Prefix: "v_", Columns: []string{"C"}}
	for in, want := range cases {
		rel.Rows = rel.Rows[:0]
		rel.Append(relation.Str(in))
		got, err := spec.VarName(rel, rel.Rows[0])
		if err != nil {
			t.Fatalf("VarName(%q): %v", in, err)
		}
		if got != "v_"+want {
			t.Errorf("VarName(%q) = %q, want %q", in, got, "v_"+want)
		}
	}
	// With no prefix, a leading digit is guarded so the name parses as an
	// identifier.
	rel.Rows = rel.Rows[:0]
	rel.Append(relation.Str("1994-01"))
	got, err := VarSpec{Columns: []string{"C"}}.VarName(rel, rel.Rows[0])
	if err != nil || got != "_1994_01" {
		t.Errorf("unprefixed VarName = %q, %v; want %q", got, err, "_1994_01")
	}
}

func TestVarSpecName(t *testing.T) {
	rel := relation.NewRelation("t", relation.NewSchema(
		relation.Column{Name: "Plan", Kind: relation.KindString},
		relation.Column{Name: "Mo", Kind: relation.KindInt},
	))
	rel.Append(relation.Str("SB1"), relation.Int(3))
	spec := VarSpec{Prefix: "pm_", Columns: []string{"Plan", "Mo"}}
	name, err := spec.VarName(rel, rel.Rows[0])
	if err != nil || name != "pm_SB1_3" {
		t.Fatalf("VarName = %q, %v", name, err)
	}
	bad := VarSpec{Prefix: "x_", Columns: []string{"Nope"}}
	if _, err := bad.VarName(rel, rel.Rows[0]); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestParameterizeColumn(t *testing.T) {
	names := polynomial.NewNames()
	rel := relation.NewRelation("Plans", relation.NewSchema(
		relation.Column{Name: "Plan", Kind: relation.KindString},
		relation.Column{Name: "Price", Kind: relation.KindFloat},
	))
	rel.Append(relation.Str("A"), relation.Float(0.4))
	rel.Append(relation.Str("E"), relation.Float(0.05))

	out, err := ParameterizeColumn(rel, "Price", []VarSpec{{Prefix: "p_", Columns: []string{"Plan"}}}, names)
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched, clone symbolic.
	if rel.Rows[0].Values[1].Kind() != relation.KindFloat {
		t.Fatal("ParameterizeColumn mutated its input")
	}
	want := polynomial.MustParse("0.4*p_A", names)
	if !polynomial.AlmostEqual(out.Rows[0].Values[1].P(), want, 1e-12) {
		t.Fatalf("cell = %s", out.Rows[0].Values[1].Format(names))
	}
	// Parameterizing a string column must fail.
	if _, err := ParameterizeColumn(rel, "Plan", nil, names); err == nil {
		t.Fatal("non-numeric target should error")
	}
}

func TestAnnotateTuples(t *testing.T) {
	names := polynomial.NewNames()
	rel := relation.NewRelation("t", relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
	))
	rel.Append(relation.Int(7))
	out, err := AnnotateTuples(rel, VarSpec{Prefix: "t", Columns: []string{"id"}}, names)
	if err != nil {
		t.Fatal(err)
	}
	want := polynomial.MustParse("t7", names)
	if !polynomial.Equal(out.Rows[0].Ann, want) {
		t.Fatalf("ann = %s", out.Rows[0].Ann.String(names))
	}
}

func TestCaptureRunningExample(t *testing.T) {
	// E1: the revenue query over Figure 1 yields exactly Example 2's P1, P2.
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Capture(telephony.RevenueQuery, cat, names, "revenue")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("polynomials = %d", set.Len())
	}
	p1 := polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names)
	p2 := polynomial.MustParse(
		"77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3", names)
	got1, ok := set.Poly("10001")
	if !ok || !polynomial.AlmostEqual(got1, p1, 1e-9) {
		t.Fatalf("P1 = %s", got1.String(names))
	}
	got2, ok := set.Poly("10002")
	if !ok || !polynomial.AlmostEqual(got2, p2, 1e-9) {
		t.Fatalf("P2 = %s", got2.String(names))
	}
	if set.Size() != 14 {
		t.Fatalf("size = %d, want 14", set.Size())
	}
}

func TestCaptureAutoDetectsValueColumn(t *testing.T) {
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Capture(telephony.RevenueQuery, cat, names, "")
	if err != nil {
		t.Fatal(err)
	}
	if set.Size() != 14 {
		t.Fatalf("size = %d", set.Size())
	}
}

func TestCaptureErrors(t *testing.T) {
	names := polynomial.NewNames()
	cat := telephony.Figure1DB() // concrete: no symbolic column
	if _, err := Capture(telephony.RevenueQuery, cat, names, ""); err == nil {
		t.Fatal("no symbolic column should error")
	}
	if _, err := Capture("SELECT Zip FROM Cust", cat, names, "nope"); err == nil {
		t.Fatal("unknown value column should error")
	}
	if _, err := Capture("not sql", cat, names, ""); err == nil {
		t.Fatal("parse error should propagate")
	}
}

func TestConcretize(t *testing.T) {
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
	if err != nil {
		t.Fatal(err)
	}
	a := telephony.ScenarioMarchMinus20(names)
	conc := Concretize(cat, a)
	for _, row := range conc["Plans"].Rows {
		if row.Values[2].Kind() != relation.KindFloat {
			t.Fatalf("cell still symbolic: %s", row.Values[2])
		}
	}
	// March prices scaled by 0.8, month-1 prices unchanged.
	for _, row := range conc["Plans"].Rows {
		plan, mo, price := row.Values[0].S(), row.Values[1].I(), row.Values[2].F()
		orig := map[string][2]float64{
			"A": {0.4, 0.5}, "F1": {0.35, 0.35}, "Y1": {0.3, 0.25}, "V": {0.25, 0.2},
			"SB1": {0.1, 0.1}, "SB2": {0.1, 0.15}, "E": {0.05, 0.05},
		}[plan]
		want := orig[0]
		if mo == 3 {
			want = orig[1] * 0.8
		}
		if diff := price - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("plan %s month %d: price %v, want %v", plan, mo, price, want)
		}
	}
}

func TestCommutationOnPaperScenarios(t *testing.T) {
	// E9: polynomial valuation == query re-execution, for both demo
	// scenarios and for a handful of random valuations.
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Figure1DB(), names)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []*valuation.Assignment{
		telephony.ScenarioMarchMinus20(names),
		telephony.ScenarioBusinessPlus10(names),
	}
	r := rand.New(rand.NewSource(41))
	for s := 0; s < 6; s++ {
		a := valuation.New(names)
		for _, v := range []string{"p1", "f1", "y1", "v", "b1", "b2", "e", "m1", "m3"} {
			a.SetVar(names.Var(v), 0.5+r.Float64())
		}
		scenarios = append(scenarios, a)
	}
	for i, a := range scenarios {
		rep, err := CheckCommutation(telephony.RevenueQuery, cat, names, "revenue", a)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if !rep.Ok(1e-9) {
			t.Fatalf("scenario %d: commutation violated: %+v", i, rep)
		}
	}
}

func TestCommutationAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	names := polynomial.NewNames()
	cat := telephony.Generate(telephony.Config{Customers: 500, Zips: 4, Months: 6})
	inst, err := telephony.InstrumentPrices(cat, names)
	if err != nil {
		t.Fatal(err)
	}
	a := telephony.ScenarioMarchMinus20(names)
	rep, err := CheckCommutation(telephony.RevenueQuery, inst, names, "revenue", a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok(1e-9) {
		t.Fatalf("commutation violated at scale: %+v", rep)
	}
	if rep.Groups != 4 {
		t.Fatalf("groups = %d, want 4", rep.Groups)
	}
}

// sameSet compares two polynomial sets captured under independent
// namespaces: identical keys, identical polynomials (Var-for-Var — which
// holds exactly when the two namespaces interned in the same order).
func sameSet(a, b *polynomial.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || !polynomial.Equal(a.Polys[i], b.Polys[i]) {
			return false
		}
	}
	return true
}

// TestCaptureAllocations pins what the engine's join → aggregate pipeline
// allocates on the running example at benchmark scale: 130 132 base rows
// into 11 polynomials. Keys hashed in place, pruned build rows stored in
// chunks and a merging accumulator leave a few hundred objects — the key
// tables, the build sides, eleven groups' accumulators and the captured
// set; a map key or a scaled polynomial per row was 260 906.
func TestCaptureAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 10 000-customer catalog")
	}
	names := polynomial.NewNames()
	cat, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: 10_000}), names)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		set, err := Capture(telephony.RevenueQuery, cat, names, "revenue")
		if err != nil || set.Len() != 11 {
			t.Fatalf("capture: %v, %d polynomials", err, set.Len())
		}
	})
	if allocs >= 2000 {
		t.Fatalf("Capture allocates %.0f objects per call, want < 2000", allocs)
	}
	t.Logf("Capture: %.0f allocs per call", allocs)
}

// TestCaptureNWorkerSweep: parallel capture is bit-identical to sequential
// capture for Workers ∈ {1, 2, 8}, including the interning order of a
// fresh namespace.
func TestCaptureNWorkerSweep(t *testing.T) {
	capture := func(workers int) (*polynomial.Set, *polynomial.Names) {
		names := polynomial.NewNames()
		cat, err := telephony.InstrumentPrices(telephony.Generate(telephony.Config{Customers: 300, Zips: 5, Months: 6}), names)
		if err != nil {
			t.Fatal(err)
		}
		set, err := CaptureN(telephony.RevenueQuery, cat, names, "revenue", workers)
		if err != nil {
			t.Fatal(err)
		}
		return set, names
	}
	wantSet, wantNames := capture(1)
	if wantSet.Len() != 5 {
		t.Fatalf("groups = %d, want 5", wantSet.Len())
	}
	for _, workers := range []int{2, 8} {
		got, gotNames := capture(workers)
		if !sameSet(wantSet, got) {
			t.Fatalf("workers=%d: captured set diverged from sequential", workers)
		}
		want, have := wantNames.All(), gotNames.All()
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("workers=%d: interning order diverged at Var %d (%q vs %q)", workers, i, want[i], have[i])
			}
		}
	}
}

// TestAnnotateTuplesNWorkerSweep: tuple-level instrumentation is identical
// for any worker count.
func TestAnnotateTuplesNWorkerSweep(t *testing.T) {
	base := relation.NewRelation("t", relation.NewSchema(
		relation.Column{Name: "ID", Kind: relation.KindInt},
		relation.Column{Name: "Tag", Kind: relation.KindString},
	))
	for i := 0; i < 400; i++ {
		base.Append(relation.Int(int64(i)), relation.Str([]string{"x", "y"}[i%2]))
	}
	spec := VarSpec{Prefix: "t", Columns: []string{"ID"}}
	wantNames := polynomial.NewNames()
	want, err := AnnotateTuplesN(base, spec, wantNames, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		gotNames := polynomial.NewNames()
		got, err := AnnotateTuplesN(base, spec, gotNames, workers)
		if err != nil {
			t.Fatal(err)
		}
		if wantNames.Len() != gotNames.Len() {
			t.Fatalf("workers=%d: vars %d vs %d", workers, gotNames.Len(), wantNames.Len())
		}
		for ri := range want.Rows {
			if !polynomial.Equal(want.Rows[ri].Ann, got.Rows[ri].Ann) {
				t.Fatalf("workers=%d row %d: annotation diverged", workers, ri)
			}
		}
	}
}

// TestCaptureLineageNWorkerSweep: lineage capture is identical for any
// worker count.
func TestCaptureLineageNWorkerSweep(t *testing.T) {
	lineage := func(workers int) *polynomial.Set {
		names := polynomial.NewNames()
		cat := telephony.Generate(telephony.Config{Customers: 200, Zips: 4, Months: 3})
		cust, err := AnnotateTuplesN(cat["Cust"], VarSpec{Prefix: "c", Columns: []string{"ID"}}, names, workers)
		if err != nil {
			t.Fatal(err)
		}
		cat["Cust"] = cust
		set, err := CaptureLineageN(
			"SELECT Cust.Zip, Calls.Mo FROM Cust, Calls WHERE Cust.ID = Calls.CID AND Calls.Dur > 500",
			cat, names, workers)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	want := lineage(1)
	if want.Len() == 0 {
		t.Fatal("empty lineage")
	}
	for _, workers := range []int{2, 8} {
		if got := lineage(workers); !sameSet(want, got) {
			t.Fatalf("workers=%d: lineage diverged from sequential", workers)
		}
	}
}
