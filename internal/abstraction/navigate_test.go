package abstraction

import (
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

func TestRefineAndCoarsenRoundTrip(t *testing.T) {
	tr := figure2Tree(t)
	s1, err := tr.CutOf("Business", "Special", "Standard")
	if err != nil {
		t.Fatal(err)
	}

	refined, err := s1.Refine(tr.ByName("Business"))
	if err != nil {
		t.Fatal(err)
	}
	if err := refined.Validate(); err != nil {
		t.Fatal(err)
	}
	if refined.NumVars() != 4 { // Business -> SB, e
		t.Fatalf("refined vars = %d", refined.NumVars())
	}

	back, err := refined.Coarsen(tr.ByName("Business"))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s1) {
		t.Fatalf("coarsen(refine(c)) = %s, want %s", back, s1)
	}
}

func TestRefineErrors(t *testing.T) {
	tr := figure2Tree(t)
	s1, _ := tr.CutOf("Business", "Special", "Standard")
	if _, err := s1.Refine(tr.ByName("SB")); err == nil {
		t.Fatal("refining a node not in the cut should fail")
	}
	leafCut := tr.LeafCut()
	if _, err := leafCut.Refine(tr.ByName("p1")); err == nil {
		t.Fatal("refining a leaf should fail")
	}
	if _, err := (Cut{}).Refine(0); err == nil {
		t.Fatal("cut without tree should fail")
	}
}

func TestCoarsenErrors(t *testing.T) {
	tr := figure2Tree(t)
	s1, _ := tr.CutOf("Business", "Special", "Standard")
	if _, err := s1.Coarsen(tr.ByName("Business")); err == nil {
		t.Fatal("coarsening a node already in the cut should fail")
	}
	if _, err := s1.Coarsen(tr.ByName("SB")); err == nil {
		t.Fatal("coarsening below the cut should fail")
	}
	root, _ := tr.CutOf("Plans")
	if _, err := root.Coarsen(tr.ByName("Business")); err == nil {
		t.Fatal("coarsening below the root cut should fail")
	}
	if _, err := (Cut{}).Coarsen(0); err == nil {
		t.Fatal("cut without tree should fail")
	}
}

func TestCoarsenToRoot(t *testing.T) {
	tr := figure2Tree(t)
	leaf := tr.LeafCut()
	root, err := leaf.Coarsen(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.NumVars() != 1 || root.Nodes[0] != tr.Root() {
		t.Fatalf("coarsen to root: %s", root)
	}
}

func TestRandomWalkStaysValid(t *testing.T) {
	// Random refine/coarsen walks must always yield valid cuts.
	tr := figure2Tree(t)
	r := rand.New(rand.NewSource(101))
	cut := tr.RootCut()
	for step := 0; step < 300; step++ {
		if r.Intn(2) == 0 {
			// Try refining a random cut node.
			id := cut.Nodes[r.Intn(len(cut.Nodes))]
			if next, err := cut.Refine(id); err == nil {
				cut = next
			}
		} else {
			// Try coarsening a random inner node.
			id := NodeID(r.Intn(tr.Len()))
			if next, err := cut.Coarsen(id); err == nil {
				cut = next
			}
		}
		if err := cut.Validate(); err != nil {
			t.Fatalf("step %d: invalid cut %s: %v", step, cut, err)
		}
	}
}

func TestNavigateSizeMonotone(t *testing.T) {
	// Refining never shrinks the compressed size; coarsening never grows it.
	tr := figure2Tree(t)
	names := tr.Names
	set := polynomial.NewSet(names)
	set.Add("10001", polynomial.MustParse(
		"208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3", names))

	cut, _ := tr.CutOf("Business", "Special", "Standard")
	sizeBefore := Apply(set, 1, cut).Size()
	refined, err := cut.Refine(tr.ByName("Special"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Apply(set, 1, refined).Size(); got < sizeBefore {
		t.Fatalf("refining shrank the size: %d -> %d", sizeBefore, got)
	}
	coarse, err := cut.Coarsen(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := Apply(set, 1, coarse).Size(); got > sizeBefore {
		t.Fatalf("coarsening grew the size: %d -> %d", sizeBefore, got)
	}
}
