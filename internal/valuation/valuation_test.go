package valuation

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

func example(t testing.TB) (*polynomial.Set, *abstraction.Tree) {
	t.Helper()
	names := polynomial.NewNames()
	tree, err := abstraction.FromPaths("Plans", names,
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
		t.Fatal(err)
	}
	set := polynomial.NewSet(names)
	set.Add("10001", polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names))
	set.Add("10002", polynomial.MustParse(
		"77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3", names))
	return set, tree
}

func TestAssignmentBasics(t *testing.T) {
	names := polynomial.NewNames()
	x := names.Var("x")
	a := New(names)
	if a.Get(x) != 1 {
		t.Fatal("unassigned variable should default to 1")
	}
	if err := a.Set("x", 0.8); err != nil {
		t.Fatal(err)
	}
	if a.Get(x) != 0.8 || !a.Has(x) || a.Len() != 1 {
		t.Fatal("Set/Get/Has/Len inconsistent")
	}
	if err := a.Set("nope", 2); err == nil {
		t.Fatal("Set of unknown name should error")
	}
	c := a.Clone()
	c.SetVar(x, 2)
	if a.Get(x) != 0.8 {
		t.Fatal("Clone not independent")
	}
	items := a.Items()
	if len(items) != 1 || items[0].Name != "x" || items[0].Value != 0.8 {
		t.Fatalf("Items = %+v", items)
	}
	d := a.Dense(names.Len())
	if d[x] != 0.8 {
		t.Fatalf("Dense = %v", d)
	}
}

func TestAssignmentMustSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSet should panic on unknown name")
		}
	}()
	New(polynomial.NewNames()).MustSet("ghost", 1)
}

func TestScenarioMarchDecrease(t *testing.T) {
	// "what if the ppm of all plans are decreased by 20% on March?"
	// => m3 = 0.8; every other variable stays 1.
	set, _ := example(t)
	a := New(set.Names).MustSet("m3", 0.8)
	got := EvalSet(set, a)
	// Group 10001: m1 coefficients + 0.8 * m3 coefficients.
	m1sum := 208.8 + 127.4 + 75.9 + 42.0
	m3sum := 240.0 + 114.45 + 72.5 + 24.2
	want := m1sum + 0.8*m3sum
	if math.Abs(got[0]-want) > 1e-9 {
		t.Fatalf("group 10001 = %v, want %v", got[0], want)
	}
}

func TestInducedAverage(t *testing.T) {
	set, tree := example(t)
	cut, err := tree.CutOf("Business", "Special", "Standard")
	if err != nil {
		t.Fatal(err)
	}
	base := New(set.Names).
		MustSet("b1", 1.2).MustSet("b2", 1.4).MustSet("e", 1.0)
	ind := Induced(base, cut)
	biz, _ := set.Names.Lookup("Business")
	if got := ind.Get(biz); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("Business induced = %v, want 1.2 (avg of 1.2, 1.4, 1.0)", got)
	}
	// Special leaves are unassigned => average of 1s = 1.
	sp, _ := set.Names.Lookup("Special")
	if got := ind.Get(sp); got != 1 {
		t.Fatalf("Special induced = %v, want 1", got)
	}
}

func TestAbstractionSoundness(t *testing.T) {
	// If a valuation is constant within each abstraction group, evaluating
	// the compressed provenance under the induced valuation gives exactly
	// the full-provenance result — the paper's soundness guarantee.
	set, tree := example(t)
	for _, cutNames := range [][]string{
		{"Business", "Special", "Standard"},
		{"SB", "e", "F", "Y", "v", "p1", "p2"},
		{"Plans"},
	} {
		cut, err := tree.CutOf(cutNames...)
		if err != nil {
			t.Fatal(err)
		}
		base := New(set.Names)
		// Assign each group's leaves the same value.
		for gi, leaves := range cut.GroupedLeaves() {
			val := 1 + float64(gi)*0.1
			for _, l := range leaves {
				base.SetVar(l, val)
			}
		}
		base.MustSet("m1", 0.9).MustSet("m3", 1.2)
		full := EvalSet(set, base)
		comp := EvalSet(abstraction.Apply(set, 1, cut), Induced(base, cut))
		acc, err := CompareResults(full, comp)
		if err != nil {
			t.Fatal(err)
		}
		if !acc.Exact(1e-9) {
			t.Fatalf("cut %s: not exact: %+v\nfull=%v comp=%v", cut, acc, full, comp)
		}
	}
}

func TestAccuracyNonConstantGroups(t *testing.T) {
	// A valuation that varies within a group is only approximated.
	set, tree := example(t)
	cut, _ := tree.CutOf("Plans")
	base := New(set.Names).MustSet("b1", 2.0) // others stay 1
	full := EvalSet(set, base)
	comp := EvalSet(abstraction.Apply(set, 1, cut), Induced(base, cut))
	acc, err := CompareResults(full, comp)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Exact(1e-9) {
		t.Fatal("expected approximation error for intra-group variation")
	}
	if acc.MaxAbs == 0 || acc.L1 == 0 {
		t.Fatalf("metrics should be positive: %+v", acc)
	}
	if acc.MaxRel < acc.MeanRel {
		t.Fatalf("max < mean: %+v", acc)
	}
}

func TestCompareResultsEdgeCases(t *testing.T) {
	a, err := CompareResults(nil, nil)
	if err != nil || a.Groups != 0 || a.MaxAbs != 0 {
		t.Fatalf("empty: %+v, %v", a, err)
	}
	b, err := CompareResults([]float64{0}, []float64{1})
	if err != nil || !math.IsInf(b.MaxRel, 1) {
		t.Fatalf("zero full with nonzero comp should give +Inf rel, got %+v, %v", b, err)
	}
	_, err = CompareResults([]float64{1}, []float64{1, 2})
	if err == nil || !strings.Contains(err.Error(), "1 full results with 2 compressed results") {
		t.Fatalf("length mismatch: got %v, want an error naming both lengths", err)
	}
}

func TestProgramMatchesDirectEval(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	names := polynomial.NewNames()
	for i := 0; i < 8; i++ {
		names.Var(fmt.Sprintf("v%d", i))
	}
	for trial := 0; trial < 50; trial++ {
		set := polynomial.NewSet(names)
		for g := 0; g < 3; g++ {
			var b polynomial.Builder
			for m := 0; m < r.Intn(10); m++ {
				var terms []polynomial.Term
				for k := 0; k < r.Intn(4); k++ {
					terms = append(terms, polynomial.TExp(polynomial.Var(r.Intn(8)), int32(1+r.Intn(3))))
				}
				b.Add(float64(r.Intn(9)-4), terms...)
			}
			set.Add(fmt.Sprintf("g%d", g), b.Polynomial())
		}
		prog := Compile(set)
		if prog.NumPolys() != set.Len() || prog.Size() != set.Size() {
			t.Fatalf("compiled shape mismatch")
		}
		a := New(names)
		for v := 0; v < 8; v++ {
			a.SetVar(polynomial.Var(v), float64(r.Intn(5))-2)
		}
		got := prog.EvalAssignment(a, nil)
		want := EvalSet(set, a)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d poly %d: program %v != direct %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestProgramEvalReuse(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	set.Add("g", polynomial.MustParse("2*x + 1", names))
	prog := Compile(set)
	buf := make([]float64, 0, 4)
	out1 := prog.Eval([]float64{3}, buf)
	if len(out1) != 1 || out1[0] != 7 {
		t.Fatalf("out1 = %v", out1)
	}
	out2 := prog.Eval([]float64{4}, out1)
	if out2[0] != 9 {
		t.Fatalf("out2 = %v", out2)
	}
}

// TestNewProgramAliasesSlabs: a Program over a PackedSet reads the set's
// own slabs, so the packed set is the only copy of the polynomials.
func TestNewProgramAliasesSlabs(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, shape := range randomShapes {
		ps, err := polynomial.PackSet(randomSet(r, shape))
		if err != nil {
			t.Fatal(err)
		}
		if ps.Size() == 0 {
			t.Fatalf("%s: empty fixture", shape)
		}
		prog := NewProgram(ps)
		if &prog.coefs[0] != &ps.Coefs()[0] || &prog.polyOff[0] != &ps.PolyOff()[0] ||
			&prog.monOff[0] != &ps.MonOff()[0] {
			t.Fatalf("%s: the program copied the coefficient or offset slabs", shape)
		}
		if len(prog.tVars) > 0 && &prog.tVars[0] != &ps.Vars()[0] {
			t.Fatalf("%s: the program copied the variable column", shape)
		}
		if (prog.tExps == nil) != (ps.Exps() == nil) || prog.tExps != nil && &prog.tExps[0] != &ps.Exps()[0] {
			t.Fatalf("%s: the program copied the exponent column", shape)
		}
	}
}
