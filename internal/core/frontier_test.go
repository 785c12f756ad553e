package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/polynomial"
)

func TestFrontierOnFigure2(t *testing.T) {
	set, tree := figure2(t)
	fr, err := FrontierSourceN(set, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) == 0 {
		t.Fatal("empty frontier")
	}
	// k=1 (root) must be present with size 4; k=2 is structurally
	// impossible (root has 3 children); k=11 (leaf cut) has size 14.
	byK := map[int]FrontierPoint{}
	for _, p := range fr {
		byK[p.NumMeta] = p
	}
	if p, ok := byK[1]; !ok || p.MinSize != 4 {
		t.Fatalf("k=1: %+v", byK[1])
	}
	if _, ok := byK[2]; ok {
		t.Fatal("k=2 should be structurally infeasible")
	}
	if p, ok := byK[11]; !ok || p.MinSize != 14 {
		t.Fatalf("k=11: %+v", byK[11])
	}
	// Every point's cut must validate, have the stated k, and its applied
	// size must equal MinSize.
	for _, p := range fr {
		if err := p.Cut.Validate(); err != nil {
			t.Fatalf("k=%d: invalid cut: %v", p.NumMeta, err)
		}
		if p.Cut.NumVars() != p.NumMeta {
			t.Fatalf("k=%d: cut has %d nodes", p.NumMeta, p.Cut.NumVars())
		}
		if got := abstraction.Apply(set, 1, p.Cut).Size(); got != p.MinSize {
			t.Fatalf("k=%d: applied %d != MinSize %d", p.NumMeta, got, p.MinSize)
		}
	}
}

func TestFrontierMatchesDPForEveryBound(t *testing.T) {
	set, tree := figure2(t)
	fr, err := FrontierSourceN(set, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for bound := 0; bound <= set.Size()+2; bound++ {
		want, wantOK := BestForBound(fr, bound)
		res, dpErr := DPSingleTreeSource(set, tree, bound, 1)
		if wantOK != (dpErr == nil) {
			t.Fatalf("bound %d: frontier ok=%v, dp err=%v", bound, wantOK, dpErr)
		}
		if !wantOK {
			continue
		}
		if res.NumMeta != want.NumMeta || res.Size != want.MinSize {
			t.Fatalf("bound %d: DP (%d, %d) != frontier (%d, %d)",
				bound, res.NumMeta, res.Size, want.NumMeta, want.MinSize)
		}
	}
}

func TestFrontierRandomAgainstExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		set, tree := randInstance(r)
		fr, err := FrontierSourceN(set, tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Exhaustively compute the per-k minima.
		minByK := map[int]int{}
		idx, err := buildIndex(set, tree)
		if err != nil {
			t.Fatal(err)
		}
		tree.EnumerateCuts(func(c abstraction.Cut) bool {
			size := int(idx.cutSize(c))
			k := c.NumVars()
			if cur, ok := minByK[k]; !ok || size < cur {
				minByK[k] = size
			}
			return true
		})
		if len(fr) != len(minByK) {
			t.Fatalf("trial %d: frontier has %d points, exhaustive %d", trial, len(fr), len(minByK))
		}
		for _, p := range fr {
			if want, ok := minByK[p.NumMeta]; !ok || want != p.MinSize {
				t.Fatalf("trial %d k=%d: frontier %d, exhaustive %d", trial, p.NumMeta, p.MinSize, want)
			}
		}
	}
}

func TestBestForBoundEdge(t *testing.T) {
	if _, ok := BestForBound(nil, 100); ok {
		t.Fatal("empty frontier should report no point")
	}
}

func TestFrontierMultiVarError(t *testing.T) {
	set, tree := figure2(t)
	b1, _ := set.Names.Lookup("b1")
	b2, _ := set.Names.Lookup("b2")
	set.Add("bad", polynomial.New(polynomial.Mono(1, polynomial.T(b1), polynomial.T(b2))))
	var mv *MultiVarError
	if _, err := FrontierSourceN(set, tree, 1); !errors.As(err, &mv) {
		t.Fatalf("want MultiVarError, got %v", err)
	}
}
