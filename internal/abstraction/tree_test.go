package abstraction

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// figure2Tree builds the paper's Figure 2 tree over the plans variables.
func figure2Tree(t *testing.T) *Tree {
	t.Helper()
	names := polynomial.NewNames()
	tr, err := FromPaths("Plans", names,
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
	return tr
}

func TestFigure2TreeShape(t *testing.T) {
	tr := figure2Tree(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Leaves()); got != 11 {
		t.Fatalf("leaves = %d, want 11 (p1,p2,y1..y3,f1,f2,v,b1,b2,e)", got)
	}
	// 18 nodes: root + Standard,Special,Business + Y,F,SB + 11 leaves.
	if tr.Len() != 18 {
		t.Fatalf("nodes = %d, want 18", tr.Len())
	}
	if tr.Depth(tr.ByName("y1")) != 3 {
		t.Fatalf("depth(y1) = %d, want 3", tr.Depth(tr.ByName("y1")))
	}
	if !tr.IsAncestorOrSelf(tr.ByName("Special"), tr.ByName("y2")) {
		t.Fatal("Special should be an ancestor of y2")
	}
	if tr.IsAncestorOrSelf(tr.ByName("Business"), tr.ByName("y2")) {
		t.Fatal("Business should not be an ancestor of y2")
	}
}

func TestPaperCutsValidate(t *testing.T) {
	tr := figure2Tree(t)
	// The five cuts from Example 4.
	for _, names := range [][]string{
		{"Business", "Special", "Standard"},           // S1
		{"SB", "e", "f1", "f2", "Y", "v", "Standard"}, // S2
		{"b1", "b2", "e", "Special", "Standard"},      // S3
		{"SB", "e", "F", "Y", "v", "p1", "p2"},        // S4
		{"Plans"},                                     // S5
	} {
		c, err := tr.CutOf(names...)
		if err != nil {
			t.Errorf("cut %v invalid: %v", names, err)
			continue
		}
		if c.NumVars() != len(names) {
			t.Errorf("cut %v NumVars = %d", names, c.NumVars())
		}
	}
}

func TestInvalidCuts(t *testing.T) {
	tr := figure2Tree(t)
	cases := [][]string{
		{"Business", "Special"},                  // p1, p2 uncovered
		{"Plans", "Standard"},                    // not an antichain
		{"SB", "b1", "e", "Special", "Standard"}, // b1 under SB
		{},                                       // empty
		{"Business", "Business", "Special", "Standard"}, // duplicate
	}
	for _, names := range cases {
		if _, err := tr.CutOf(names...); err == nil {
			t.Errorf("cut %v unexpectedly valid", names)
		}
	}
	if _, err := tr.CutOf("NoSuchNode"); err == nil {
		t.Error("cut with unknown node name unexpectedly valid")
	}
}

func TestLeafAndRootCuts(t *testing.T) {
	tr := figure2Tree(t)
	lc := tr.LeafCut()
	if err := lc.Validate(); err != nil {
		t.Fatal(err)
	}
	if !lc.IsIdentity() {
		t.Fatal("leaf cut should be the identity")
	}
	if lc.NumVars() != 11 {
		t.Fatalf("leaf cut vars = %d", lc.NumVars())
	}
	rc := tr.RootCut()
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
	if rc.IsIdentity() {
		t.Fatal("root cut should not be identity")
	}
	if rc.NumVars() != 1 {
		t.Fatalf("root cut vars = %d", rc.NumVars())
	}
}

func TestCutVarMappingAndApply(t *testing.T) {
	tr := figure2Tree(t)
	n := tr.Names
	c, err := tr.CutOf("Business", "Special", "Standard")
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		if c.CoverOf(leaf) == NoNode {
			t.Fatalf("leaf %s is not covered", tr.Node(leaf).Name)
		}
	}
	b1, _ := n.Lookup("b1")
	if got := c.CoverOf(tr.LeafByVar(b1)); got != tr.ByName("Business") {
		t.Fatalf("b1 should map to Business")
	}
	// Example 4: P1 under S1 has 4 monomials and 4 distinct variables.
	p1 := polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", n)
	s := polynomial.NewSet(n)
	s.Add("10001", p1)
	comp := Apply(s, 1, c)
	if comp.Size() != 4 {
		t.Fatalf("P1 under S1: size = %d, want 4", comp.Size())
	}
	if comp.NumVars() != 4 {
		t.Fatalf("P1 under S1: vars = %d, want 4 (St, Sp, m1, m3)", comp.NumVars())
	}
	// Exact coefficients from Example 4.
	want := polynomial.MustParse("208.8*Standard*m1 + 240*Standard*m3 + 245.3*Special*m1 + 211.15*Special*m3", n)
	if !polynomial.AlmostEqual(comp.Polys[0], want, 1e-9) {
		t.Fatalf("P1 under S1 = %s", comp.Polys[0].String(n))
	}
}

func TestApplyRootCutMatchesExample4S5(t *testing.T) {
	tr := figure2Tree(t)
	n := tr.Names
	p1 := polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", n)
	s := polynomial.NewSet(n)
	s.Add("10001", p1)
	comp := Apply(s, 1, tr.RootCut())
	// Example 4 prints "466.1*Plans*m1 + 451.15*Plans*m3"; the m1 coefficient
	// is a typo in the paper: 208.8+127.4+75.9+42 = 454.1 (the m3 sum 451.15
	// matches). We verify the correct sum and the stated monomial/var counts.
	if comp.Size() != 2 {
		t.Fatalf("P1 under S5: size = %d, want 2", comp.Size())
	}
	if comp.NumVars() != 3 {
		t.Fatalf("P1 under S5: vars = %d, want 3", comp.NumVars())
	}
	want := polynomial.MustParse("454.1*Plans*m1 + 451.15*Plans*m3", n)
	if !polynomial.AlmostEqual(comp.Polys[0], want, 1e-9) {
		t.Fatalf("P1 under S5 = %s", comp.Polys[0].String(n))
	}
}

func TestGroupedLeaves(t *testing.T) {
	tr := figure2Tree(t)
	c, _ := tr.CutOf("SB", "e")
	// Not a full cut; GroupedLeaves still works on the raw struct.
	g := Cut{Tree: tr, Nodes: []NodeID{tr.ByName("SB"), tr.ByName("e")}}
	_ = c
	groups := g.GroupedLeaves()
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if len(groups[0]) != 2 || len(groups[1]) != 1 {
		t.Fatalf("group sizes = %d,%d, want 2,1", len(groups[0]), len(groups[1]))
	}
}

func TestCoverOf(t *testing.T) {
	tr := figure2Tree(t)
	c, _ := tr.CutOf("Business", "Special", "Standard")
	if got := c.CoverOf(tr.ByName("b1")); got != tr.ByName("Business") {
		t.Fatalf("CoverOf(b1) = %v", tr.Node(got).Name)
	}
}

func TestEnumerateAndCountCuts(t *testing.T) {
	tr := figure2Tree(t)
	var cuts []Cut
	tr.EnumerateCuts(func(c Cut) bool {
		if err := c.Validate(); err != nil {
			t.Fatalf("enumerated invalid cut %s: %v", c, err)
		}
		cuts = append(cuts, c)
		return true
	})
	if len(cuts) != tr.CountCuts() {
		t.Fatalf("enumerated %d cuts, CountCuts = %d", len(cuts), tr.CountCuts())
	}
	// Figure 2: root or product over Standard(1+1*1... compute:
	// Standard: 1 + (1*1) = 2; Y: 1+1=2 (3 leaves: 1+1*1*1=2); F: 2; SB: 2;
	// Special: 1 + 2*2*1 = 5; Business: 1 + 2*1 = 3;
	// Plans: 1 + 2*5*3 = 31.
	if tr.CountCuts() != 31 {
		t.Fatalf("CountCuts = %d, want 31", tr.CountCuts())
	}
	// Deduplicate to ensure enumeration yields distinct cuts.
	seen := make(map[string]bool)
	for _, c := range cuts {
		k := c.String()
		if seen[k] {
			t.Fatalf("duplicate cut %s", k)
		}
		seen[k] = true
	}
}

func TestEnumerateCutsEarlyStop(t *testing.T) {
	tr := figure2Tree(t)
	count := 0
	tr.EnumerateCuts(func(Cut) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop yielded %d cuts", count)
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	tr := figure2Tree(t)
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	names := polynomial.NewNames()
	tr2, err := TreeFromJSON(data, names)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != tr.Len() {
		t.Fatalf("round trip node count %d != %d", tr2.Len(), tr.Len())
	}
	if tr2.String() != tr.String() {
		t.Fatalf("round trip changed structure:\n%s\nvs\n%s", tr2.String(), tr.String())
	}
}

func TestTreeJSONErrors(t *testing.T) {
	names := polynomial.NewNames()
	cases := []string{
		`{`,
		`{"children":[{"name":"x"}]}`,
		`{"name":"r","children":[{"children":[]}]}`,
		`{"name":"r","children":[{"name":"a"},{"name":"a"}]}`,
	}
	for _, in := range cases {
		if _, err := TreeFromJSON([]byte(in), names); err == nil {
			t.Errorf("TreeFromJSON(%q) succeeded, want error", in)
		}
	}
}

func TestAddPathConflict(t *testing.T) {
	names := polynomial.NewNames()
	tr := NewTree("root", names)
	if _, err := tr.AddPath("a", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddPath("b", "x"); err == nil {
		t.Fatal("AddPath should reject re-parenting an existing node")
	}
}

func TestAddChildErrors(t *testing.T) {
	names := polynomial.NewNames()
	tr := NewTree("root", names)
	if _, err := tr.AddChild(99, "x"); err == nil {
		t.Fatal("AddChild with bad parent should fail")
	}
	tr.MustAddChild(tr.Root(), "x")
	if _, err := tr.AddChild(tr.Root(), "x"); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestForestValidate(t *testing.T) {
	names := polynomial.NewNames()
	t1, _ := FromPaths("A", names, []string{"x"}, []string{"y"})
	t2, _ := FromPaths("B", names, []string{"z"})
	if err := (Forest{t1, t2}).Validate(); err != nil {
		t.Fatal(err)
	}
	t3, _ := FromPaths("C", names, []string{"x2"})
	// Rebind t3's leaf to collide with t1's "x".
	t3.nodes[1].Var = t1.Node(t1.ByName("x")).Var
	if err := (Forest{t1, t3}).Validate(); err == nil {
		t.Fatal("forest with shared leaf var should fail validation")
	}
}

func TestForestLeafOwners(t *testing.T) {
	names := polynomial.NewNames()
	t1, _ := FromPaths("A", names, []string{"G", "x"}, []string{"G", "y"})
	t2, _ := FromPaths("B", names, []string{"z"})
	owners := (Forest{t1, t2}).LeafOwners()
	if len(owners) != 3 {
		t.Fatalf("owners = %d entries, want 3 (inner nodes must be absent)", len(owners))
	}
	for _, want := range []struct {
		name string
		tree int
	}{{"x", 0}, {"y", 0}, {"z", 1}} {
		v, ok := names.Lookup(want.name)
		if !ok {
			t.Fatalf("%s not interned", want.name)
		}
		o, ok := owners[v]
		if !ok || o.Tree != want.tree {
			t.Fatalf("owner of %s = %+v (present=%v), want tree %d", want.name, o, ok, want.tree)
		}
		tr := []*Tree{t1, t2}[o.Tree]
		if tr.Node(o.Node).Var != v || !tr.IsLeaf(o.Node) {
			t.Fatalf("owner node of %s is not its leaf", want.name)
		}
	}
	// Inner nodes own variables too, but never appear in the lookup.
	g, _ := names.Lookup("G")
	if _, ok := owners[g]; ok {
		t.Fatal("inner node G must not be a leaf owner")
	}
}

func TestPostorderChildrenFirst(t *testing.T) {
	tr := figure2Tree(t)
	pos := make(map[NodeID]int)
	for i, id := range tr.Postorder() {
		pos[id] = i
	}
	for i := 0; i < tr.Len(); i++ {
		n := tr.Node(NodeID(i))
		for _, c := range n.Children {
			if pos[c] >= pos[n.ID] {
				t.Fatalf("child %q after parent %q in postorder", tr.Node(c).Name, n.Name)
			}
		}
	}
}

func TestRandomTreeCutEnumerationMatchesCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		names := polynomial.NewNames()
		tr := NewTree("r", names)
		// Random tree with <= 10 extra nodes.
		ids := []NodeID{tr.Root()}
		n := 1 + r.Intn(9)
		for i := 0; i < n; i++ {
			parent := ids[r.Intn(len(ids))]
			id := tr.MustAddChild(parent, string(rune('a'+i)))
			ids = append(ids, id)
		}
		count := 0
		tr.EnumerateCuts(func(c Cut) bool {
			if err := c.Validate(); err != nil {
				t.Fatalf("invalid cut: %v", err)
			}
			count++
			return true
		})
		if count != tr.CountCuts() {
			t.Fatalf("trial %d: enumerated %d, CountCuts %d", trial, count, tr.CountCuts())
		}
	}
}
